open Sentry_util
open Sentry_soc
open Sentry_crypto
open Sentry_core
open Sentry_attacks

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check_bytes = Alcotest.(check bytes)

let boot ?(seed = 1) () = System.boot `Tegra3 ~seed

(* ----------------------------- Memdump ---------------------------- *)

let test_memdump_search () =
  let d = Memdump.of_bytes ~label:"t" ~base:0x1000 (Bytes.of_string "aaaNEEDLEbbb") in
  checkb "contains" true (Memdump.contains d (Bytes.of_string "NEEDLE"));
  Alcotest.(check (option int)) "find with base" (Some 0x1003)
    (Memdump.find d (Bytes.of_string "NEEDLE"));
  checkb "missing" false (Memdump.contains d (Bytes.of_string "nadel"))

let test_memdump_fuzzy () =
  let d = Memdump.of_bytes ~label:"t" ~base:0 (Bytes.of_string "xxABCDEFGHIJyy") in
  let needle = Bytes.of_string "ABCXEFGHIJ" in
  (* 9 of 10 bytes match *)
  checkb "fuzzy 85%" true (Memdump.contains_fuzzy d needle ~min_match:0.85);
  checkb "strict 100%" false (Memdump.contains_fuzzy d needle ~min_match:1.0)

let test_memdump_remanence_ratio () =
  let b = Bytes.create 80 in
  Bytes_util.fill_pattern b (Bytes.of_string "PATTERNZ");
  Bytes.set b 3 '?';
  (* kills slot 0 *)
  let d = Memdump.of_bytes ~label:"t" ~base:0 b in
  Alcotest.(check (float 1e-9)) "9/10" 0.9
    (Memdump.remanence_ratio d ~pattern:(Bytes.of_string "PATTERNZ"))

(* The full count the early-exit scan replaced, kept as the oracle:
   score every alignment over every needle byte. *)
let fuzzy_reference data needle ~min_match =
  let nn = Bytes.length needle and n = Bytes.length data in
  let needed = int_of_float (ceil (min_match *. float_of_int nn)) in
  let found = ref false in
  for i = 0 to n - nn do
    let matches = ref 0 in
    for j = 0 to nn - 1 do
      if Bytes.get data (i + j) = Bytes.get needle j then incr matches
    done;
    if !matches >= needed then found := true
  done;
  nn > 0 && !found

(* Small alphabets make partial matches common; short images against
   longer needles cover [nn > n]; empty needles and images come up
   too.  Half the cases plant a copy of the needle with a few bytes
   changed, so long needles get near misses and hits as well. *)
let fuzzy_case =
  let open QCheck.Gen in
  let* k = int_range 1 4 in
  let ch = map (fun i -> Char.chr (Char.code 'a' + i)) (int_bound (k - 1)) in
  let* data = bytes_size ~gen:ch (int_range 0 48) in
  let* needle = bytes_size ~gen:ch (int_range 0 16) in
  let* min_match = oneofl [ 0.0; 0.5; 0.85; 1.0 ] in
  let nn = Bytes.length needle and n = Bytes.length data in
  let* plant = bool in
  if plant && nn > 0 && nn <= n then
    let* at = int_bound (n - nn) in
    let* edits = list_size (int_bound 3) (pair (int_bound (nn - 1)) ch) in
    Bytes.blit needle 0 data at nn;
    List.iter (fun (j, c) -> Bytes.set data (at + j) c) edits;
    return (data, needle, min_match)
  else return (data, needle, min_match)

let qcheck_tests =
  let print (data, needle, min_match) =
    Printf.sprintf "data %S needle %S min_match %g" (Bytes.to_string data)
      (Bytes.to_string needle) min_match
  in
  [
    QCheck.Test.make ~name:"contains_fuzzy = full count" ~count:3000
      (QCheck.make ~print fuzzy_case)
      (fun (data, needle, min_match) ->
        let img = Memdump.of_bytes ~label:"q" ~base:0 data in
        Memdump.contains_fuzzy img needle ~min_match = fuzzy_reference data needle ~min_match);
  ]

let test_memdump_fuzzy_edges () =
  let d = Memdump.of_bytes ~label:"t" ~base:0 (Bytes.of_string "abcab") in
  checkb "empty needle" false (Memdump.contains_fuzzy d Bytes.empty ~min_match:0.0);
  checkb "needle longer than image" false
    (Memdump.contains_fuzzy d (Bytes.of_string "abcabc") ~min_match:0.0);
  checkb "any alignment at 0%" true (Memdump.contains_fuzzy d (Bytes.of_string "zzz") ~min_match:0.0);
  checkb "unreachable above 100%" false
    (Memdump.contains_fuzzy d (Bytes.of_string "abc") ~min_match:1.5);
  checkb "last alignment" true (Memdump.contains_fuzzy d (Bytes.of_string "cab") ~min_match:1.0)

(* Hard allocation gate: a no-hit scan over 1 MiB (what every
   cold-boot round after a lock does) runs in constant space. *)
let test_memdump_fuzzy_allocation_ceiling () =
  let prng = Prng.create ~seed:12 in
  let img = Memdump.of_bytes ~label:"t" ~base:0 (Prng.bytes prng Units.mib) in
  let needle = Bytes.of_string "SENTRY-TEST-SECRET-0123456789abcde" in
  let mw0 = Gc.minor_words () in
  let hit = Memdump.contains_fuzzy img needle ~min_match:0.85 in
  let words = Gc.minor_words () -. mw0 in
  checkb "no hit" false hit;
  if words > 1024.0 then
    Alcotest.failf "1 MiB fuzzy scan allocated %.0f minor words (ceiling 1024)" words

(* ---------------------------- Key_finder -------------------------- *)

let test_key_finder_multiple_keys () =
  let p = Prng.create ~seed:3 in
  let k1 = Prng.bytes p 16 and k2 = Prng.bytes p 16 in
  let s1 = Aes_key.serialize (Aes_key.expand k1) in
  let s2 = Aes_key.serialize (Aes_key.expand k2) in
  let image =
    Bytes.concat Bytes.empty [ Prng.bytes p 1000; s1; Prng.bytes p 500; s2; Prng.bytes p 200 ]
  in
  (* schedules are word-aligned in the image? 1000 and 1516 are both
     multiples of 4, good. *)
  let d = Memdump.of_bytes ~label:"t" ~base:0 image in
  let hits = Key_finder.scan d in
  checki "two keys" 2 (List.length hits);
  checkb "k1 found" true (Key_finder.finds_key d ~key:k1);
  checkb "k2 found" true (Key_finder.finds_key d ~key:k2);
  checki "k1 offset" 1000 (List.hd hits).Key_finder.offset

let test_key_finder_unaligned_scan () =
  let p = Prng.create ~seed:4 in
  let k = Prng.bytes p 16 in
  let s = Aes_key.serialize (Aes_key.expand k) in
  let image = Bytes.cat (Prng.bytes p 7) s in
  let d = Memdump.of_bytes ~label:"t" ~base:0 image in
  checkb "missed at alignment 4" true (Key_finder.scan d = []);
  checki "found at alignment 1" 1 (List.length (Key_finder.scan ~alignment:1 d))

let test_key_finder_clean_image () =
  let p = Prng.create ~seed:5 in
  let d = Memdump.of_bytes ~label:"t" ~base:0 (Prng.bytes p 65536) in
  checki "no keys in noise" 0 (List.length (Key_finder.scan ~alignment:1 d))

(* ----------------------------- Cold_boot -------------------------- *)

let plant_secret_in_dram system secret =
  let machine = System.machine system in
  let frame = Sentry_kernel.Frame_alloc.alloc system.System.frames in
  Machine.write_uncached machine frame secret;
  frame

let test_cold_boot_warm_reads_dram () =
  let system = boot () in
  let secret = Bytes.of_string "SECRET-IN-DRAM-SHOULD-SURVIVE-WARM" in
  ignore (plant_secret_in_dram system secret);
  checkb "warm reboot finds it" true
    (Cold_boot.succeeds (System.machine system) Cold_boot.Os_reboot ~secret)

let test_cold_boot_two_second_destroys () =
  let system = boot () in
  let secret = Bytes.of_string "SECRET-IN-DRAM-DIES-AFTER-2S-RESET" in
  ignore (plant_secret_in_dram system secret);
  checkb "2s reset destroys" false
    (Cold_boot.succeeds (System.machine system) Cold_boot.Two_second_reset ~secret)

let test_cold_boot_iram_safe () =
  let system = boot () in
  let machine = System.machine system in
  let secret = Bytes.of_string "IRAM-SECRET-KEY!" in
  Machine.write machine (Memmap.iram_base + (128 * Units.kib)) secret;
  checkb "reflash wipes iram" false
    (Cold_boot.succeeds machine Cold_boot.Device_reflash ~secret)

let test_cold_boot_recovers_generic_key () =
  let system = boot ~seed:7 () in
  let machine = System.machine system in
  let key = Prng.bytes (Machine.prng machine) 16 in
  let g =
    Generic_aes.create machine
      ~ctx_base:(Sentry_kernel.Frame_alloc.alloc system.System.frames)
      ~variant:Perf.Openssl_user
  in
  Generic_aes.set_key g key;
  Pl310.flush_masked (Machine.l2 machine);
  let keys = Cold_boot.recover_keys machine Cold_boot.Os_reboot in
  checkb "key recovered" true (List.exists (Bytes.equal key) keys)

let test_cold_boot_misses_onsoc_key () =
  let system = boot ~seed:8 () in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  ignore sentry;
  (* the volatile key's schedule lives only on-SoC *)
  let keys = Cold_boot.recover_keys machine Cold_boot.Os_reboot in
  checki "nothing" 0 (List.length keys)

let test_cold_boot_image_once_answers_everything () =
  let system = boot ~seed:11 () in
  let machine = System.machine system in
  let secret = Bytes.of_string "ONE-RESET-MANY-QUESTIONS-SECRET!" in
  ignore (plant_secret_in_dram system secret);
  let key = Prng.bytes (Machine.prng machine) 16 in
  let g =
    Generic_aes.create machine
      ~ctx_base:(Sentry_kernel.Frame_alloc.alloc system.System.frames)
      ~variant:Perf.Openssl_user
  in
  Generic_aes.set_key g key;
  Pl310.flush_masked (Machine.l2 machine);
  (* one destructive reset, then every question against the same image *)
  let img = Cold_boot.image machine Cold_boot.Os_reboot in
  checkb "secret in image" true (Cold_boot.secret_in_image img ~secret);
  checkb "same image, same answer" true (Cold_boot.secret_in_image img ~secret);
  checkb "key schedule in image" true
    (List.exists (Bytes.equal key) (Cold_boot.keys_of_image img))

let test_cold_boot_wrappers_agree_with_image () =
  (* warm reboots keep DRAM intact, so the one-shot wrappers (which
     each mount their own reset) must agree with the image API *)
  let system = boot ~seed:12 () in
  let machine = System.machine system in
  let secret = Bytes.of_string "WRAPPER-VS-IMAGE-AGREEMENT-CHECK" in
  ignore (plant_secret_in_dram system secret);
  let img = Cold_boot.image machine Cold_boot.Os_reboot in
  checkb "image finds it" true (Cold_boot.secret_in_image img ~secret);
  checkb "succeeds wrapper agrees" true (Cold_boot.succeeds machine Cold_boot.Os_reboot ~secret);
  let dram_dump, iram_dump = Cold_boot.mount machine Cold_boot.Os_reboot in
  checkb "mount wrapper sees dram" true (Memdump.contains dram_dump secret);
  checkb "mount wrapper misses iram" false (Memdump.contains iram_dump secret)

(* ---------------------------- Dma_attack -------------------------- *)

let test_dma_dump_finds_dram_secret () =
  let system = boot () in
  let secret = Bytes.of_string "DMA-VISIBLE" in
  ignore (plant_secret_in_dram system secret);
  checkb "found" true (Dma_attack.succeeds (System.machine system) ~secret)

let test_dma_dump_misses_locked_cache () =
  let system = boot () in
  let machine = System.machine system in
  let lc =
    Locked_cache.create machine ~arena_base:system.System.arena_base ~max_ways:1
  in
  let page = Locked_cache.alloc_page lc in
  let secret = Bytes.of_string "CACHE-CONFINED!!" in
  Machine.write machine page secret;
  checkb "invisible to DMA" false (Dma_attack.succeeds machine ~secret)

let test_dma_denied_counter () =
  let system = boot () in
  let machine = System.machine system in
  let tz = Machine.trustzone machine in
  Trustzone.with_secure_world tz (fun () ->
      Trustzone.deny_dma tz (Machine.iram_region machine));
  let _, denied = Dma_attack.dump machine ~target:`Iram in
  checkb "all pages denied" true (denied = 256 * Units.kib / 4096)

let test_dma_injection () =
  let system = boot () in
  let machine = System.machine system in
  let frame = Sentry_kernel.Frame_alloc.alloc system.System.frames in
  (match Dma_attack.inject machine ~addr:frame (Bytes.of_string "EVIL") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "unprotected write should succeed");
  let tz = Machine.trustzone machine in
  Trustzone.with_secure_world tz (fun () ->
      Trustzone.deny_dma tz (Memmap.region ~base:frame ~size:4096));
  match Dma_attack.inject machine ~addr:frame (Bytes.of_string "EVIL") with
  | Error Dma.Denied -> ()
  | _ -> Alcotest.fail "protected write should be denied"

(* --------------------------- Bus_monitor -------------------------- *)

let test_bus_monitor_payload_capture () =
  let system = boot () in
  let machine = System.machine system in
  let monitor = Bus_monitor.attach machine in
  let frame = Sentry_kernel.Frame_alloc.alloc system.System.frames in
  let secret = Bytes.of_string "WIRE-SECRET-0123456789" in
  Machine.write_uncached machine frame secret;
  checkb "seen on the wire" true (Bus_monitor.saw_secret monitor ~secret);
  Bus_monitor.detach monitor

let test_bus_monitor_misses_onsoc_traffic () =
  let system = boot () in
  let machine = System.machine system in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let monitor = Bus_monitor.attach machine in
  let aes = Sentry.aes sentry in
  ignore (Aes_on_soc.encrypt aes ~iv:(Bytes.make 16 '\000') (Bytes.make 64 'p'));
  checki "zero transactions" 0 (Bus_monitor.transaction_count monitor);
  Bus_monitor.detach monitor

let uncached_victim ~seed =
  let system = boot ~seed () in
  let machine = System.machine system in
  let key = Prng.bytes (Machine.prng machine) 16 in
  let frame = Sentry_kernel.Frame_alloc.alloc system.System.frames in
  let g = Generic_aes.create ~uncached:true machine ~ctx_base:frame ~variant:Perf.Openssl_user in
  Generic_aes.set_key g key;
  let layout = Aes_state.layout Aes_key.Aes_128 in
  let te_base = frame + (Aes_state.find layout "round_table_te").Aes_state.offset in
  (system, machine, g, key, te_base, frame)

let test_first_round_attack_recovers_key () =
  let _, machine, g, key, te_base, _ = uncached_victim ~seed:21 in
  let monitor = Bus_monitor.attach machine in
  let plaintext = Bytes.of_string "attack plaintext" in
  ignore (Generic_aes.encrypt_instrumented g ~iv:(Bytes.make 16 '\000') plaintext);
  (match Bus_monitor.recover_key_first_round monitor ~table_base:te_base ~plaintext with
  | Some k -> check_bytes "exact key" key k
  | None -> Alcotest.fail "no recovery");
  Bus_monitor.detach monitor

let test_first_round_attack_needs_traffic () =
  let _, machine, _, _, te_base, _ = uncached_victim ~seed:22 in
  let monitor = Bus_monitor.attach machine in
  checkb "nothing to recover" true
    (Bus_monitor.recover_key_first_round monitor ~table_base:te_base
       ~plaintext:(Bytes.make 16 'x')
    = None);
  Bus_monitor.detach monitor

let cached_victim ~seed =
  let system = boot ~seed () in
  let machine = System.machine system in
  let key = Prng.bytes (Machine.prng machine) 16 in
  let frame = Sentry_kernel.Frame_alloc.alloc system.System.frames in
  let g = Generic_aes.create machine ~ctx_base:frame ~variant:Perf.Openssl_user in
  Generic_aes.set_key g key;
  let layout = Aes_state.layout Aes_key.Aes_128 in
  let te_base = frame + (Aes_state.find layout "round_table_te").Aes_state.offset in
  (machine, g, key, te_base)

let test_cached_attack_candidates_sound () =
  let machine, g, key, te_base = cached_victim ~seed:23 in
  Pl310.flush_masked (Machine.l2 machine);
  let monitor = Bus_monitor.attach machine in
  let plaintext = Bytes.of_string "cached plaintext" in
  ignore (Generic_aes.encrypt_instrumented g ~iv:(Bytes.make 16 '\000') plaintext);
  (match Bus_monitor.recover_key_candidates_cached monitor ~table_base:te_base ~plaintext with
  | Some cands ->
      Array.iteri
        (fun pos c ->
          checkb "true byte in candidates" true (List.mem (Char.code (Bytes.get key pos)) c);
          checkb "some reduction" true (List.length c < 256))
        cands
  | None -> Alcotest.fail "no fills observed");
  Bus_monitor.detach monitor

let test_cached_attack_multisample_converges () =
  let machine, g, key, te_base = cached_victim ~seed:24 in
  let prng = Prng.create ~seed:25 in
  let cands = ref (Array.init 16 (fun _ -> List.init 256 Fun.id)) in
  for _ = 1 to 24 do
    Pl310.flush_masked (Machine.l2 machine);
    let monitor = Bus_monitor.attach machine in
    let plaintext = Prng.bytes prng 16 in
    ignore (Generic_aes.encrypt_instrumented g ~iv:(Bytes.make 16 '\000') plaintext);
    (match Bus_monitor.recover_key_candidates_cached monitor ~table_base:te_base ~plaintext with
    | Some c -> cands := Bus_monitor.intersect_candidates !cands c
    | None -> ());
    Bus_monitor.detach monitor
  done;
  let total = Array.fold_left (fun acc c -> acc + List.length c) 0 !cands in
  checkb "under 3 candidates/byte on average" true (total < 48);
  Array.iteri
    (fun pos c -> checkb "true byte survives" true (List.mem (Char.code (Bytes.get key pos)) c))
    !cands

let test_te_read_indices_order () =
  let _, machine, g, key, te_base, _ = uncached_victim ~seed:26 in
  let monitor = Bus_monitor.attach machine in
  let plaintext = Bytes.make 16 '\000' in
  ignore (Generic_aes.encrypt_instrumented g ~iv:(Bytes.make 16 '\000') plaintext);
  let indices = Bus_monitor.te_read_indices monitor ~table_base:te_base in
  (* with pt = 0, round-1 indices are exactly the key bytes in lookup
     order *)
  let first16 = List.filteri (fun i _ -> i < 16) indices in
  List.iteri
    (fun j idx ->
      let pos = Aes_block.round1_lookup_order.(j) in
      checki "index = key byte" (Char.code (Bytes.get key pos)) idx)
    first16;
  Bus_monitor.detach monitor

(* ------------------------------ Verdict --------------------------- *)

let test_verdict_matrix_matches_table3 () =
  List.iter
    (fun (attack, storage, safe) ->
      let expected = match storage with Verdict.Plain_dram -> false | _ -> true in
      checkb
        (Printf.sprintf "%s vs %s" (Verdict.attack_name attack) (Verdict.storage_name storage))
        expected safe)
    (Verdict.matrix ())

(* ------------------------- Sentry vs attacks ---------------------- *)

let locked_device ?(background = false) ~seed () =
  let system = boot ~seed () in
  let sentry = Sentry.install system (Config.default `Tegra3) in
  let proc = System.spawn system ~name:"victim" ~bytes:(64 * Units.kib) in
  let region = List.hd (Sentry_kernel.Address_space.regions proc.Sentry_kernel.Process.aspace) in
  let secret = Bytes.of_string "USER-DATA-SECRET" in
  System.fill_region system proc region secret;
  Pl310.flush_masked (Machine.l2 (System.machine system));
  Sentry.mark_sensitive sentry proc;
  if background then Sentry.enable_background sentry proc;
  ignore (Sentry.lock sentry);
  (system, sentry, proc, region, secret)

let test_locked_device_resists_all_attacks () =
  (* DMA first (non-destructive), cold boot last *)
  let system, _, _, _, secret = locked_device ~seed:31 () in
  let machine = System.machine system in
  checkb "dma" false (Dma_attack.succeeds machine ~secret);
  checkb "keys invisible to scan" true
    (Cold_boot.recover_keys machine Cold_boot.Os_reboot = []);
  let system, _, _, _, secret = locked_device ~seed:32 () in
  checkb "reflash cold boot" false
    (Cold_boot.succeeds (System.machine system) Cold_boot.Device_reflash ~secret)

let test_background_device_resists_dma_mid_computation () =
  let system, _, proc, region, secret = locked_device ~background:true ~seed:33 () in
  let machine = System.machine system in
  (* the app computes on its data while locked... *)
  for i = 0 to 15 do
    ignore
      (Sentry_kernel.Vm.read system.System.vm proc
         ~vaddr:(region.Sentry_kernel.Address_space.vstart + (i * 4096))
         ~len:16)
  done;
  (* ...and a DMA attack strikes mid-flight *)
  checkb "dma during background" false (Dma_attack.succeeds machine ~secret)

let test_unlocked_device_is_fair_game () =
  (* the paper's main observation: protecting an unlocked device is
     pointless; Sentry only protects the locked state *)
  let system, sentry, proc, region, secret = locked_device ~seed:34 () in
  let machine = System.machine system in
  (match Sentry.unlock sentry ~pin:"1234" with Ok _ -> () | Error _ -> Alcotest.fail "unlock");
  (* user touches their data; it is plaintext again *)
  ignore
    (Sentry_kernel.Vm.read system.System.vm proc
       ~vaddr:region.Sentry_kernel.Address_space.vstart ~len:16);
  Pl310.flush_masked (Machine.l2 machine);
  checkb "unlocked device leaks to DMA (by design)" true (Dma_attack.succeeds machine ~secret)

let () =
  Alcotest.run "sentry_attacks"
    [
      ( "memdump",
        [
          Alcotest.test_case "search" `Quick test_memdump_search;
          Alcotest.test_case "fuzzy" `Quick test_memdump_fuzzy;
          Alcotest.test_case "fuzzy edges" `Quick test_memdump_fuzzy_edges;
          Alcotest.test_case "fuzzy scan ceiling" `Quick test_memdump_fuzzy_allocation_ceiling;
          Alcotest.test_case "remanence ratio" `Quick test_memdump_remanence_ratio;
        ] );
      ( "key_finder",
        [
          Alcotest.test_case "multiple keys" `Quick test_key_finder_multiple_keys;
          Alcotest.test_case "unaligned" `Quick test_key_finder_unaligned_scan;
          Alcotest.test_case "clean image" `Quick test_key_finder_clean_image;
        ] );
      ( "cold_boot",
        [
          Alcotest.test_case "warm reads dram" `Quick test_cold_boot_warm_reads_dram;
          Alcotest.test_case "2s destroys" `Quick test_cold_boot_two_second_destroys;
          Alcotest.test_case "iram safe" `Quick test_cold_boot_iram_safe;
          Alcotest.test_case "recovers generic key" `Quick test_cold_boot_recovers_generic_key;
          Alcotest.test_case "misses on-soc key" `Quick test_cold_boot_misses_onsoc_key;
          Alcotest.test_case "image once, many questions" `Quick
            test_cold_boot_image_once_answers_everything;
          Alcotest.test_case "wrappers agree with image" `Quick
            test_cold_boot_wrappers_agree_with_image;
        ] );
      ( "dma_attack",
        [
          Alcotest.test_case "finds dram secret" `Quick test_dma_dump_finds_dram_secret;
          Alcotest.test_case "misses locked cache" `Quick test_dma_dump_misses_locked_cache;
          Alcotest.test_case "denied counter" `Quick test_dma_denied_counter;
          Alcotest.test_case "injection" `Quick test_dma_injection;
        ] );
      ( "bus_monitor",
        [
          Alcotest.test_case "payload capture" `Quick test_bus_monitor_payload_capture;
          Alcotest.test_case "misses on-soc traffic" `Quick test_bus_monitor_misses_onsoc_traffic;
          Alcotest.test_case "first-round recovery" `Quick test_first_round_attack_recovers_key;
          Alcotest.test_case "needs traffic" `Quick test_first_round_attack_needs_traffic;
          Alcotest.test_case "cached candidates sound" `Quick test_cached_attack_candidates_sound;
          Alcotest.test_case "multi-sample converges" `Quick
            test_cached_attack_multisample_converges;
          Alcotest.test_case "index order" `Quick test_te_read_indices_order;
        ] );
      ("verdict", [ Alcotest.test_case "table 3 matrix" `Quick test_verdict_matrix_matches_table3 ]);
      ( "sentry-vs-attacks",
        [
          Alcotest.test_case "locked device resists" `Quick test_locked_device_resists_all_attacks;
          Alcotest.test_case "background resists DMA" `Quick
            test_background_device_resists_dma_mid_computation;
          Alcotest.test_case "unlocked is fair game" `Quick test_unlocked_device_is_fair_game;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
