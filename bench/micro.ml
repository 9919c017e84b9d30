(** Bechamel microbenchmarks: host-side performance of the primitives
    behind each table/figure reproduction.

    These measure the {e implementation} (our AES, cache model, pager)
    on the host CPU; the paper-shaped numbers come from the calibrated
    simulation in [Sentry_experiments].  One [Test.make] per
    table/figure, named accordingly. *)

open Bechamel
open Toolkit
open Sentry_util
open Sentry_soc
open Sentry_crypto

let aes_key = Aes.expand (Bytes.make 16 'k')
let block16 = Bytes.make 16 'p'
let page4k = Bytes.make 4096 'p'
let iv = Bytes.make 16 '\000'

(* Table 4 / Fig 11: the cipher itself *)
let t_aes_block =
  Test.make ~name:"table4/aes128-block-encrypt"
    (Staged.stage (fun () -> Aes.encrypt_block aes_key block16 0 block16 0))

let t_aes_cbc_4k =
  let c = Mode.of_key aes_key in
  Test.make ~name:"fig11/aes128-cbc-4k-page"
    (Staged.stage (fun () -> ignore (Mode.cbc_encrypt c ~iv page4k)))

let t_aes_instrumented =
  let buf = Bytes.make 4096 '\000' in
  let blk = Aes_block.init (Accessor.native buf) ~key:(Bytes.make 16 'k') in
  Test.make ~name:"fig11/aes128-instrumented-block"
    (Staged.stage (fun () -> Aes_block.encrypt_block blk block16 0 block16 0))

let t_sha256 =
  Test.make ~name:"fig9/sha256-4k" (Staged.stage (fun () -> ignore (Sha256.digest page4k)))

(* Ablations: the table-free cipher and XTS sector mode *)
let t_aes_ct =
  let k = Aes_ct.expand (Bytes.make 16 'k') in
  Test.make ~name:"ablations/aes-ct-table-free-block"
    (Staged.stage (fun () -> Aes_ct.encrypt_block k block16 0 block16 0))

let t_xts_sector =
  let k = Xts.expand (Bytes.make 32 'k') in
  let sector512 = Bytes.make 512 's' in
  Test.make ~name:"ablations/xts-aes-512B-sector"
    (Staged.stage (fun () -> ignore (Xts.encrypt_sector k ~sector:42 sector512)))

(* Fig 10: L2 model hit/miss paths *)
let t_l2_hit, t_l2_miss =
  let machine = Machine.create (Machine.tegra3 ~dram_size:(8 * Units.mib) ()) in
  let base = (Machine.dram_region machine).Memmap.base in
  ignore (Machine.read machine base 64);
  let miss_counter = ref 0 in
  ( Test.make ~name:"fig10/l2-hit-read-64B"
      (Staged.stage (fun () -> ignore (Machine.read machine base 64))),
    Test.make ~name:"fig10/l2-miss-read-64B"
      (Staged.stage (fun () ->
           (* stride over 8 MB so most reads miss *)
           miss_counter := (!miss_counter + (4096 + 64)) mod (7 * Units.mib);
           ignore (Machine.read machine (base + !miss_counter) 64))) )

(* Table 2: remanence decay over 64 KB *)
let t_remanence =
  let machine = Machine.create (Machine.tegra3 ~dram_size:(2 * Units.mib) ()) in
  Dram.set_powered (Machine.dram machine) false;
  Test.make ~name:"table2/power-cycle-2MB"
    (Staged.stage (fun () -> Dram.power_cycle (Machine.dram machine) ~off_s:0.5))

(* Table 3 / cold boot: the decay-tolerant secret search over a decayed
   8 MB image that does not hold the secret -- every post-lock round's
   case, so the scan visits every offset *)
let t_fuzzy_scan =
  let machine = Machine.create (Machine.nexus4 ~dram_size:(8 * Units.mib) ()) in
  let dram = Machine.dram machine in
  Bytes_util.fill_pattern (Dram.raw dram) (Bytes.of_string "PATTERNZ");
  Dram.set_powered dram false;
  Dram.power_cycle dram ~off_s:2.0;
  let image = Sentry_attacks.Memdump.of_bytes ~label:"bench" ~base:0 (Dram.raw dram) in
  let secret = Bytes.of_string "sentry-bench-secret-0123456789abcd" in
  Test.make ~name:"table3/cold-boot-fuzzy-scan-8MB"
    (Staged.stage (fun () ->
         ignore (Sentry_attacks.Memdump.contains_fuzzy image secret ~min_match:0.85)))

(* Figs 2-5: per-page lock-path encryption *)
let t_page_encrypt =
  let system = Sentry_core.System.boot `Tegra3 ~seed:1 in
  let sentry = Sentry_core.Sentry.install system (Sentry_core.Config.default `Tegra3) in
  let pc = Sentry_core.Sentry.page_crypt sentry in
  let frame = Sentry_kernel.Frame_alloc.alloc system.Sentry_core.System.frames in
  Test.make ~name:"fig4/page-encrypt-in-place"
    (Staged.stage (fun () -> Sentry_core.Page_crypt.encrypt_frame pc ~pid:1 ~vpn:7 ~frame))

(* Fig 9: one dm-crypt sector round trip *)
let t_dmcrypt =
  let system = Sentry_core.System.boot `Tegra3 ~seed:2 in
  ignore (Sentry_core.Sentry.install system (Sentry_core.Config.default `Tegra3));
  let machine = Sentry_core.System.machine system in
  let dev = Sentry_kernel.Block_dev.create machine ~kind:Sentry_kernel.Block_dev.Ramdisk ~size:Units.mib in
  let dm =
    Sentry_kernel.Dm_crypt.create ~api:system.Sentry_core.System.crypto_api
      ~key:(Bytes.make 16 'k')
      (Sentry_kernel.Block_dev.target dev)
  in
  let t = Sentry_kernel.Dm_crypt.target dm in
  let sector = Bytes.make 512 's' in
  Test.make ~name:"fig9/dm-crypt-sector-rw"
    (Staged.stage (fun () ->
         Sentry_kernel.Blockio.write t ~off:0 sector;
         ignore (Sentry_kernel.Blockio.read t ~off:0 ~len:512)))

(* Table 3 / cold boot: key-schedule scan rate *)
let t_keyscan =
  let prng = Prng.create ~seed:3 in
  let haystack = Prng.bytes prng (256 * Units.kib) in
  let dump = Sentry_attacks.Memdump.of_bytes ~label:"bench" ~base:0 haystack in
  Test.make ~name:"table3/key-schedule-scan-256KB"
    (Staged.stage (fun () -> ignore (Sentry_attacks.Key_finder.scan dump)))

(* Figs 6-8: one background page-in through the locked cache *)
let t_page_in =
  let system = Sentry_core.System.boot `Tegra3 ~seed:4 in
  let sentry = Sentry_core.Sentry.install system (Sentry_core.Config.default `Tegra3) in
  let proc = Sentry_core.System.spawn system ~name:"bench" ~bytes:(64 * Units.kib) in
  Sentry_core.Sentry.mark_sensitive sentry proc;
  Sentry_core.Sentry.enable_background sentry proc;
  ignore (Sentry_core.Sentry.lock sentry);
  let region = List.hd (Sentry_kernel.Address_space.regions proc.Sentry_kernel.Process.aspace) in
  let vaddr = region.Sentry_kernel.Address_space.vstart in
  let table = Sentry_kernel.Address_space.table proc.Sentry_kernel.Process.aspace in
  let bg = Option.get (Sentry_core.Sentry.background_engine sentry) in
  Test.make ~name:"fig6-8/background-page-in+out"
    (Staged.stage (fun () ->
         ignore (Sentry_kernel.Vm.read system.Sentry_core.System.vm proc ~vaddr ~len:8);
         Sentry_core.Background.evict_all bg;
         (match Sentry_kernel.Page_table.find table ~vpn:(Sentry_kernel.Page.vpn_of vaddr) with
         | Some pte -> pte.Sentry_kernel.Page_table.young <- false
         | None -> ())))

let tests =
  [
    t_aes_block;
    t_aes_cbc_4k;
    t_aes_instrumented;
    t_sha256;
    t_aes_ct;
    t_xts_sector;
    t_l2_hit;
    t_l2_miss;
    t_remanence;
    t_fuzzy_scan;
    t_page_encrypt;
    t_dmcrypt;
    t_keyscan;
    t_page_in;
  ]

(** Run the suite and print one line per test. *)
let run () =
  print_endline "### Bechamel microbenchmarks (host-side implementation costs)\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None () in
  let grouped = Test.make_grouped ~name:"sentry" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (t :: _) -> rows := (name, t) :: !rows
      | Some [] | None -> ())
    results;
  List.iter
    (fun (name, t) ->
      if t >= 1e6 then Printf.printf "  %-44s %12.2f ms/run\n" name (t /. 1e6)
      else if t >= 1e3 then Printf.printf "  %-44s %12.2f us/run\n" name (t /. 1e3)
      else Printf.printf "  %-44s %12.1f ns/run\n" name t)
    (List.sort compare !rows);
  print_newline ()
