(** [fleet_churn]: a closed loop of lock / service wake / unlock /
    touch cycles over a multi-tenant fleet on the Tegra 3 platform with
    the batched backend and one boot.

    One op is one cycle: [Sentry.lock]; one service wake writing and
    reading dm-crypt sectors; [Sentry.unlock]; [Vm.touch] on every
    tenant's first page, then on a seeded half of its pages.  Host time
    goes to the core lock walk and the kernel's lazy-decrypt faults
    (crypto inside both); the SoC runs only at set-up. *)

open Sentry_soc
open Sentry_kernel
open Sentry_core
module H = Harness
module W = Workload

type size = {
  tenants : int;
  pages_per_proc : int;  (** a medium tenant's main-region pages *)
  io_sectors : int;  (** dm-crypt sectors written, then read, per wake *)
  window : int;  (** cycles in the deterministic prefix *)
  setups : int;  (** set-up passes; the first one is driven *)
  probes : int;  (** host-speed probes before each step and pass *)
  dram_size : int option;
}

(* 32 tenants in the Fleet class mix at 32 pages: 1216 resident pages,
   several times the modelled L2. *)
let full =
  {
    tenants = 32;
    pages_per_proc = 32;
    io_sectors = 8;
    window = 4;
    setups = 15;
    probes = 2;
    dram_size = None;
  }

let tiny =
  {
    tenants = 4;
    pages_per_proc = 4;
    io_sectors = 2;
    window = 2;
    setups = 2;
    probes = 1;
    dram_size = Some (8 * Sentry_util.Units.mib);
  }

let platform = `Tegra3

type tenant = {
  proc : Process.t;
  main : Address_space.region;
  regions : Address_space.region list;
  pattern : Bytes.t;
  fill : Bytes.t;  (** the pattern repeated over a page and one pattern more *)
}

type fleet = {
  system : System.t;
  sentry : Sentry.t;
  tenants : tenant list;
  dm : Dm_crypt.t;
  page : Bytes.t;  (** the checks' view of one page *)
}

(** Spawn tenant [i] in the Fleet class mix (its size, and a DMA region
    for large tenants), fill it with a seeded pattern and mark it
    sensitive. *)
let spawn_tenant tr system sentry ~pages_per_proc ~seed i =
  H.span tr "kernel.populate" (fun () ->
      let name = Printf.sprintf "tenant%02d" i in
      let pages = Sentry_workloads.Fleet.main_pages_for ~index:i ~pages_per_proc in
      let proc = System.spawn system ~name ~bytes:(pages * Page.size) in
      let aspace = proc.Process.aspace in
      let main = Option.get (Address_space.find_region aspace ~name:"main") in
      let dma = Sentry_workloads.Fleet.dma_pages_for ~index:i ~pages_per_proc in
      let regions =
        if dma = 0 then [ main ]
        else
          [
            main;
            Address_space.map_region aspace ~name:"dma" ~kind:Address_space.Dma
              ~bytes:(dma * Page.size);
          ]
      in
      let pattern =
        Bytes.of_string (Printf.sprintf "%s-%08x-secret!" name (seed land 0xffffffff))
      in
      List.iter (fun r -> System.fill_region system proc r pattern) regions;
      Sentry.mark_sensitive sentry proc;
      let n = Bytes.length pattern in
      let fill = Bytes.init (Page.size + n) (fun k -> Bytes.get pattern (k mod n)) in
      { proc; main; regions; pattern; fill })

let setup tr size ~seed =
  let system =
    H.span tr "soc.boot" (fun () ->
        System.boot ~seed ?dram_size:size.dram_size ~pid_base:1 platform)
  in
  let sentry =
    H.span tr "core.install" (fun () -> Sentry.install system (Config.default platform))
  in
  Sentry.set_backend sentry Sentry.Batched;
  let tenants =
    List.init size.tenants (spawn_tenant tr system sentry ~pages_per_proc:size.pages_per_proc ~seed)
  in
  let dm =
    H.span tr "kernel.dm_setup" (fun () ->
        let machine = System.machine system in
        let dev =
          Block_dev.create machine ~kind:Block_dev.Ramdisk
            ~size:(size.io_sectors * Block_dev.sector_size)
        in
        let key = Sentry_util.Prng.bytes (Machine.prng machine) 16 in
        Dm_crypt.create ~api:system.System.crypto_api ~key (Block_dev.target dev))
  in
  { system; sentry; tenants; dm; page = Bytes.create Page.size }

(* ------------------------------ checks ----------------------------- *)

let pte t vaddr =
  Page_table.find_exn (Address_space.table t.proc.Process.aspace) ~vpn:(Page.vpn_of vaddr)

let page_view f t vaddr =
  W.cpu_view (System.machine f.system) ~addr:(pte t vaddr).Page_table.frame f.page;
  f.page

(* Does page [p] of [t]'s main region hold what [System.fill_region]
   left there: the pattern repeated from the region's start? *)
let holds_fill f t p =
  let view = page_view f t (t.main.Address_space.vstart + (p * Page.size)) in
  let off = p * Page.size mod Bytes.length t.pattern in
  let rec from k =
    k = Page.size
    || (Bytes.get_int64_ne view k = Bytes.get_int64_ne t.fill (off + k) && from (k + 8))
  in
  from 0

(** No page of any tenant still holds its pattern in cleartext. *)
let locked_clean f =
  List.for_all
    (fun t ->
      List.for_all
        (fun (r : Address_space.region) ->
          List.for_all
            (fun p ->
              let view = page_view f t (r.Address_space.vstart + (p * Page.size)) in
              not (Sentry_util.Bytes_util.contains view t.pattern))
            (List.init r.Address_space.npages Fun.id))
        t.regions)
    f.tenants

(** Every listed (tenant, page) of a main region reads back its pattern. *)
let reads_back f touched = List.for_all (fun (t, p) -> holds_fill f t p) touched

(* ------------------------------ the op ----------------------------- *)

(* Deterministic-prefix tallies (see [Workload.drive]). *)
type window = {
  mutable lock_ns : float list;
  mutable first_touch_ns : float list;
  mutable energy_j : float;
  mutable pages_locked : int;
  mutable faults : int;
  mutable sectors : int;
  mutable plans : string list;  (** touched pages per cycle, newest first *)
}

let aes_j f = Energy.category (Machine.energy (System.machine f.system)) "aes"

(* Service wake: write [io_sectors] sectors, then read them back;
   returns whether every read matched its write. *)
let service_wake tr f size ~cycle =
  let data s = Bytes.make Block_dev.sector_size (Char.chr ((cycle + (s * 31)) land 0xff)) in
  for s = 0 to size.io_sectors - 1 do
    H.span tr "kernel.dm_crypt" ~units:(fun () -> 1) (fun () ->
        Dm_crypt.write_sector f.dm s (data s))
  done;
  let reads =
    List.init size.io_sectors (fun s ->
        H.span tr "kernel.dm_crypt" ~units:(fun _ -> 1) (fun () -> Dm_crypt.read_sector f.dm s))
  in
  List.for_all Fun.id (List.mapi (fun s r -> Bytes.equal (data s) r) reads)

(* Touch one main-region page.  Every page touched after an unlock is
   still ciphertext (page 0 first, then distinct others), so every
   touch is a lazy-decrypt fault. *)
let touch tr f t p =
  let vaddr = t.main.Address_space.vstart + (p * Page.size) in
  H.span tr "kernel.fault" (fun () -> Vm.touch f.system.System.vm t.proc ~vaddr)

(* A seeded half of a main region's pages, page 0 (touched first)
   included. *)
let half_pages prng (r : Address_space.region) =
  let rest = Array.init (r.Address_space.npages - 1) (fun i -> i + 1) in
  Sentry_util.Prng.shuffle prng rest;
  0 :: Array.to_list (Array.sub rest 0 (max 0 ((r.Address_space.npages / 2) - 1)))

(** Cycle [i]; returns whether its checks passed, and its step. *)
let cycle tr f size ~seed win i =
  H.begin_op tr i;
  let e0 = aes_j f in
  let lock =
    H.segment tr (fun () ->
        H.span tr "core.lock"
          ~units:(fun s -> s.Encrypt_on_lock.pages_encrypted)
          (fun () -> Sentry.lock f.sentry))
  in
  let clean = locked_clean f in
  let prng = Sentry_util.Prng.create ~seed:(W.derive ~seed i) in
  let plan = List.map (fun t -> (t, half_pages prng t.main)) f.tenants in
  let io_ok, unlocked, first_touch =
    H.segment tr (fun () ->
        let io_ok = service_wake tr f size ~cycle:i in
        let t_unlock = System.now f.system in
        let unlocked =
          H.span tr "core.unlock" (fun () ->
              Sentry.unlock f.sentry ~pin:(Sentry.config f.sentry).Config.pin)
        in
        let first =
          List.map
            (fun (t, _) ->
              touch tr f t 0;
              System.now f.system -. t_unlock)
            plan
        in
        List.iter (fun (t, pages) -> List.iter (fun p -> if p <> 0 then touch tr f t p) pages) plan;
        (io_ok, Result.is_ok unlocked, first))
  in
  let host_s, alloc_words = H.end_op tr in
  let touched = List.concat_map (fun (t, pages) -> List.map (fun p -> (t, p)) pages) plan in
  let ok = clean && io_ok && unlocked && reads_back f touched in
  if i <= size.window then begin
    win.lock_ns <- lock.Encrypt_on_lock.elapsed_ns :: win.lock_ns;
    win.first_touch_ns <- first_touch @ win.first_touch_ns;
    win.energy_j <- win.energy_j +. (aes_j f -. e0);
    win.pages_locked <- win.pages_locked + lock.Encrypt_on_lock.pages_encrypted;
    win.faults <- win.faults + List.length touched;
    win.sectors <- win.sectors + (2 * size.io_sectors);
    win.plans <-
      String.concat ","
        (List.map (fun (_, ps) -> String.concat " " (List.map string_of_int ps)) plan)
      :: win.plans
  end;
  (ok, { W.host_s; ops = 1; alloc_words })

let flat_value flat key = Option.value ~default:Float.nan (List.assoc_opt key flat)

let run tr size ~seed ~seconds =
  let win =
    {
      lock_ns = [];
      first_touch_ns = [];
      energy_j = 0.0;
      pages_locked = 0;
      faults = 0;
      sectors = 0;
      plans = [];
    }
  in
  let failed = ref 0 and flat = ref [] in
  let _, measured =
    W.drive tr ~setups:size.setups ~probes:size.probes ~domains:1 ~seconds ~window:size.window
      ~granule:1 ~setup:(fun () -> setup tr size ~seed)
      (fun f i ->
        (* Positive control: before the first lock every page reads
           back, so the checks can tell cleartext from ciphertext. *)
        if i = 1 then begin
          let all_pages =
            List.concat_map
              (fun t -> List.init t.main.Address_space.npages (fun p -> (t, p)))
              f.tenants
          in
          if not (reads_back f all_pages) || locked_clean f then
            failwith "fleet_churn: the cleartext checks fail their positive control"
        end;
        let ok, step = cycle tr f size ~seed win i in
        if not ok then incr failed;
        if i = size.window then flat := Sentry_core.Obs_report.flat f.sentry;
        step)
  in
  let ms ns = ns /. 1e6 in
  {
    W.measured;
    attempted = List.length measured.W.steps;
    failed = !failed;
    domains = 1;
    window = size.window;
    granule = 1;
    sim =
      [
        W.metric "sim_first_touch_ms.p50" "ms" (ms (H.percentile 50.0 win.first_touch_ns));
        W.metric "sim_first_touch_ms.p99" "ms" (ms (H.percentile 99.0 win.first_touch_ns));
        W.metric "sim_lock_ms.p50" "ms" (ms (H.median win.lock_ns));
        W.metric "sim_energy_mj_per_op" "mJ" (win.energy_j *. 1e3 /. float_of_int size.window);
      ];
    counts =
      [
        W.metric "core.lock.pages" "count" (float_of_int win.pages_locked);
        W.metric "kernel.fault.count" "count" (float_of_int win.faults);
        W.metric "kernel.dm_crypt.sectors" "count" (float_of_int win.sectors);
        W.metric "crypto.bytes_encrypted" "bytes"
          (flat_value !flat "core.page_crypt/bytes_encrypted");
        W.metric "crypto.bytes_decrypted" "bytes"
          (flat_value !flat "core.page_crypt/bytes_decrypted");
      ];
    schedule = Digest.to_hex (Digest.string (String.concat ";" (List.rev win.plans)));
  }
