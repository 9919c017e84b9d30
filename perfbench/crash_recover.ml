(** [crash_recover]: a closed loop of crash-and-recover rounds on the
    Nexus 4 platform, configured like [Fault_scenario.run] (journal and
    taint tracking on, batched backend).

    One op is one round: a fresh [System.boot], spawn and fill; a
    seeded [Injector] crash during the lock walk (at [page_encrypted]
    or [frame_transform], seeded occurrence), the kind alternating
    between power loss (a 2 s hard reset) and a warm reset; then
    [Sentry.recover], the [Locked_state_consistent] audit, and a
    [Device_reflash] cold-boot image scanned for the secret.  Host
    time goes to the SoC (boot, power cycles) and the attack scan; the
    core walk is small here. *)

open Sentry_soc
open Sentry_kernel
open Sentry_core
module H = Harness
module W = Workload
module Injector = Sentry_faults.Injector
module Plan = Sentry_faults.Plan
module Fault = Sentry_faults.Fault
module Cold_boot = Sentry_attacks.Cold_boot

type size = {
  tenants : int;
  pages : int;  (** pages per tenant *)
  window : int;  (** rounds in the deterministic prefix (even) *)
  setups : int;
  probes : int;  (** host-speed probes before each step and pass *)
  dram_size : int option;
}

let mib = Sentry_util.Units.mib

(* 8 MiB of DRAM keeps a round near half a second, so a run holds dozens. *)
let full =
  { tenants = 4; pages = 16; window = 2; setups = 12; probes = 4; dram_size = Some (8 * mib) }

let tiny =
  { tenants = 2; pages = 4; window = 2; setups = 2; probes = 1; dram_size = Some (4 * mib) }

let platform = `Nexus4
let config = { (Config.default platform) with Config.track_taint = true; journal = true }

(* Every tenant's fill pattern starts with the run's secret, so one
   scan for the secret covers the whole fleet. *)
let secret ~seed =
  Bytes.of_string (Printf.sprintf "CRASH-RECOVER-SECRET-%012x-" (seed land 0xffffffffffff))

type device = { system : System.t; sentry : Sentry.t }

let boot tr size ~seed =
  let system =
    H.span tr "soc.boot" (fun () ->
        System.boot ~seed ?dram_size:size.dram_size ~pid_base:1 platform)
  in
  let sentry = H.span tr "core.install" (fun () -> Sentry.install system config) in
  Sentry.set_backend sentry Sentry.Batched;
  let secret = secret ~seed in
  for i = 0 to size.tenants - 1 do
    H.span tr "kernel.populate" (fun () ->
        let name = Printf.sprintf "tenant%d" i in
        let proc = System.spawn system ~name ~bytes:(size.pages * Page.size) in
        let main = Option.get (Address_space.find_region proc.Process.aspace ~name:"main") in
        System.fill_region system proc main (Bytes.cat secret (Bytes.of_string (string_of_int i)));
        Sentry.mark_sensitive sentry proc)
  done;
  { system; sentry }

let image_has_secret tr d ~seed =
  let image =
    H.span tr "attacks.image" (fun () ->
        Cold_boot.image (System.machine d.system) Cold_boot.Device_reflash)
  in
  H.span tr "attacks.scan" (fun () -> Cold_boot.secret_in_image image ~secret:(secret ~seed))

(** Set-up is the attack's positive control: on a device that never
    locked, the same cold-boot image must yield the secret, or a clean
    round below would prove nothing. *)
let setup tr size ~seed =
  let d = boot tr size ~seed in
  (* The fill may still sit in dirty L2 lines; write it back, as the
     lock walk's flush would, so the cleartext is in DRAM to be found. *)
  H.span tr "soc.flush" (fun () -> Pl310.flush_masked (Machine.l2 (System.machine d.system)));
  if not (image_has_secret tr d ~seed) then
    failwith "crash_recover: the cold-boot scan fails its positive control"

(** Round [i]'s crash: the kind alternates (power loss on odd rounds,
    warm reset on even), the point and occurrence are seeded.  The
    occurrence stays inside the walk, so every round crashes. *)
let plan size ~seed i =
  let prng = Sentry_util.Prng.create ~seed in
  let point =
    if Sentry_util.Prng.int prng 2 = 0 then Injector.Points.page_encrypted
    else Injector.Points.frame_transform
  in
  let nth = 1 + Sentry_util.Prng.int prng (size.tenants * size.pages) in
  let kind = if i mod 2 = 1 then Fault.Power_loss else Fault.Reset in
  Plan.make ~seed ~name:(Printf.sprintf "round%d" i)
    [ Plan.trigger ~point ~kind ~at:(Plan.Nth nth) ]

type window = {
  mutable fired : int;
  mutable pages_fixed : int;
  mutable crashes : (string * int) list;  (** (point, occurrence) per round *)
}

let round tr size ~seed win i =
  let rseed = W.derive ~seed i in
  let plan = plan size ~seed:rseed i in
  H.begin_op tr i;
  let locked, findings, leaked, fired, fixed =
    H.segment tr (fun () ->
        let d = boot tr size ~seed:rseed in
        let machine = System.machine d.system in
        let session = Injector.create plan in
        Injector.activate session;
        let crash =
          Fun.protect ~finally:Injector.deactivate (fun () ->
              match H.span tr "core.lock" (fun () -> Sentry.lock d.sentry) with
              | (_ : Encrypt_on_lock.stats) -> None
              | exception Injector.Injected r -> Some r)
        in
        let fired = Injector.fired_of session in
        Option.iter
          (fun (r : Injector.record) ->
            match r.Injector.kind with
            | Fault.Power_loss ->
                H.span tr "soc.reboot_hard" (fun () ->
                    Machine.reboot machine (Machine.Hard_reset 2.0))
            | _ -> H.span tr "soc.reboot_warm" (fun () -> Machine.reboot machine Machine.Warm))
          crash;
        let recovery = H.span tr "core.recover" (fun () -> Sentry.recover d.sentry) in
        let findings =
          H.span tr "analysis.audit" (fun () ->
              List.length (Sentry_analysis.Checkers.Locked_state_consistent.audit d.sentry))
        in
        let locked = Sentry.state d.sentry = Lock_state.Locked in
        let leaked = image_has_secret tr d ~seed:rseed in
        ( locked,
          findings,
          leaked,
          fired,
          match recovery with Some r -> r.Sentry.pages_fixed | None -> 0 ))
  in
  let host_s, alloc_words = H.end_op tr in
  (* Each round boots a fresh device, like a fresh process: collect the
     last one, outside the measurement, so every round starts from the
     same heap and the peak footprint does not depend on where the
     collector happened to stand. *)
  Gc.full_major ();
  if i <= size.window then begin
    win.fired <- win.fired + List.length fired;
    win.pages_fixed <- win.pages_fixed + fixed;
    win.crashes <-
      win.crashes
      @ List.map (fun (r : Injector.record) -> (r.Injector.point, r.Injector.occurrence)) fired
  end;
  (* Mirrors [Fault_scenario.survived]: the round ends Locked, the
     audit is clean and the secret is not in the image.  As in
     [Fault_scenario.run], the fill is still in dirty L2 lines when the
     walk starts, and the crash's reboot drops them, so the last check
     cannot fail here (see README.md, "What the leak check does not
     test"). *)
  (locked && findings = 0 && not leaked, { W.host_s; ops = 1; alloc_words })

let run tr size ~seed ~seconds =
  let win = { fired = 0; pages_fixed = 0; crashes = [] } in
  let failed = ref 0 in
  let (), measured =
    W.drive tr ~setups:size.setups ~probes:size.probes ~domains:1 ~seconds ~window:size.window
      ~granule:2 ~setup:(fun () -> setup tr size ~seed)
      (fun () i ->
        let ok, step = round tr size ~seed win i in
        if not ok then incr failed;
        step)
  in
  {
    W.measured;
    attempted = List.length measured.W.steps;
    failed = !failed;
    domains = 1;
    window = size.window;
    granule = 2;
    sim = [];
    counts =
      [
        W.metric "faults.fired" "count" (float_of_int win.fired);
        W.metric "core.recover.pages_fixed" "count" (float_of_int win.pages_fixed);
      ];
    schedule =
      String.concat ";" (List.map (fun (point, n) -> Printf.sprintf "%s#%d" point n) win.crashes);
  }
