(* Differential tests for the zero-allocation scatter-gather memory
   path: the [_into]/[_from] APIs must leave every piece of simulated
   state — bytes, clock, energy, bus statistics, cache statistics,
   taint shadows — bit-identical to the allocating [read]/[write] pair
   they replace.  Only host wall-clock and GC pressure may differ. *)

open Sentry_util
open Sentry_soc

let check_bytes = Alcotest.(check bytes)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0)) (* exact: bit-identity, not tolerance *)

let mk () = Machine.create ~seed:7 (Machine.tegra3 ~dram_size:(4 * Units.mib) ())

let payload n c = Bytes.init n (fun i -> Char.chr ((Char.code c + (i * 7)) land 0xff))

(* Drive one scripted workload against a fresh machine.  With
   [use_into] the script goes through the scatter-gather API, always
   at a non-zero view offset inside an oversized buffer, so the view
   arithmetic is exercised; otherwise it uses the allocating API.  The
   script covers line-straddling accesses, a page-sized transfer,
   taint-labelled stores, lockdown + masked flush, and single bytes. *)
let drive ~taint ~use_into =
  let m = mk () in
  if taint then Machine.enable_taint m;
  let base = (Machine.dram_region m).Memmap.base in
  let do_write addr b =
    if use_into then begin
      let buf = Bytes.make (Bytes.length b + 13) '\xaa' in
      Bytes.blit b 0 buf 5 (Bytes.length b);
      Machine.write_from m addr buf ~off:5 ~len:(Bytes.length b)
    end
    else Machine.write m addr b
  in
  let do_read addr len =
    if use_into then begin
      let buf = Bytes.make (len + 9) '\x00' in
      Machine.read_into m addr buf ~off:4 ~len;
      Bytes.sub buf 4 len
    end
    else Machine.read m addr len
  in
  do_write (base + 30) (payload 100 'a') (* straddles line boundaries *);
  do_write (base + 4096) (payload 4096 'b') (* page-sized *);
  Machine.with_taint m Taint.Secret_cleartext (fun () ->
      do_write (base + 8192 + 17) (payload 515 'c'));
  let r1 = do_read (base + 30) 100 in
  let r2 = do_read (base + 4096) 4096 in
  Pl310.set_lockdown (Machine.l2 m) 0b1;
  Pl310.set_flush_mask (Machine.l2 m) 0b1;
  Machine.with_taint m Taint.Ciphertext (fun () -> do_write (base + 16384 + 3) (payload 61 'd'));
  Pl310.flush_masked (Machine.l2 m);
  let r3 = do_read (base + 8192 + 17) 515 in
  Machine.write_byte m (base + 100_000) 'z';
  let rb = Bytes.make 1 (Machine.read_byte m (base + 100_000)) in
  (m, Bytes.concat Bytes.empty [ r1; r2; r3; rb ])

let assert_identical m_a m_b =
  checkf "simulated clock" (Machine.now m_a) (Machine.now m_b);
  checkf "energy total" (Energy.total (Machine.energy m_a)) (Energy.total (Machine.energy m_b));
  Alcotest.(check (list (pair string (float 0.0))))
    "energy categories"
    (Energy.categories (Machine.energy m_a))
    (Energy.categories (Machine.energy m_b));
  let sa = Pl310.stats (Machine.l2 m_a) and sb = Pl310.stats (Machine.l2 m_b) in
  checki "l2 hits" sa.Pl310.hits sb.Pl310.hits;
  checki "l2 misses" sa.Pl310.misses sb.Pl310.misses;
  checki "l2 writebacks" sa.Pl310.writebacks sb.Pl310.writebacks;
  checki "l2 bypasses" sa.Pl310.bypasses sb.Pl310.bypasses;
  let ta, ra, wa = Bus.stats (Machine.bus m_a) and tb, rb, wb = Bus.stats (Machine.bus m_b) in
  checki "bus transactions" ta tb;
  checki "bus bytes read" ra rb;
  checki "bus bytes written" wa wb;
  check_bytes "dram contents" (Dram.snapshot (Machine.dram m_a)) (Dram.snapshot (Machine.dram m_b));
  match (Dram.shadow (Machine.dram m_a), Dram.shadow (Machine.dram m_b)) with
  | Some a, Some b -> check_bytes "dram taint shadow" (Bytes.copy a) (Bytes.copy b)
  | None, None -> ()
  | _ -> Alcotest.fail "taint enabled on only one machine"

let test_differential_plain () =
  let m_a, bytes_a = drive ~taint:false ~use_into:false in
  let m_b, bytes_b = drive ~taint:false ~use_into:true in
  check_bytes "read-back bytes" bytes_a bytes_b;
  assert_identical m_a m_b

let test_differential_tainted () =
  let m_a, bytes_a = drive ~taint:true ~use_into:false in
  let m_b, bytes_b = drive ~taint:true ~use_into:true in
  check_bytes "read-back bytes" bytes_a bytes_b;
  assert_identical m_a m_b

(* The write-back path passes the live line array to DRAM as a view
   instead of copying it.  The bus monitor's transaction and the DRAM
   contents must still be snapshots: mutating the line after the
   write-back may not alter either retroactively. *)
let test_writeback_no_alias () =
  let m = mk () in
  let base = (Machine.dram_region m).Memmap.base in
  let captured = ref [] in
  let detach =
    Bus.attach_monitor (Machine.bus m) (fun txn ->
        if txn.Bus.op = Bus.Write then captured := txn :: !captured)
  in
  Machine.write m base (Bytes.make 32 'A');
  Pl310.flush_masked (Machine.l2 m) (* writes the 'A' line back *);
  Machine.write m base (Bytes.make 32 'B') (* re-fills and mutates the same line *);
  detach ();
  let wb =
    match List.find_opt (fun txn -> txn.Bus.addr = base && txn.Bus.initiator = `L2) !captured with
    | Some txn -> txn
    | None -> Alcotest.fail "no write-back transaction captured"
  in
  check_bytes "monitor still sees the written-back bytes" (Bytes.make 32 'A') wb.Bus.data;
  check_bytes "dram still holds the written-back bytes" (Bytes.make 32 'A')
    (Bytes.sub (Dram.raw (Machine.dram m)) 0 32)

(* Byte accessors share the machine's scratch buffer; they must still
   behave like 1-byte reads/writes. *)
let test_byte_accessors () =
  let m = mk () in
  let base = (Machine.dram_region m).Memmap.base in
  Machine.write m base (Bytes.of_string "hello");
  Alcotest.(check char) "read_byte" 'e' (Machine.read_byte m (base + 1));
  Machine.write_byte m (base + 1) 'u';
  check_bytes "write_byte lands" (Bytes.of_string "hullo") (Machine.read m base 5)

(* Allocation regression: the warm cached path must stay allocation
   free.  The ceiling is generous (the old path allocated hundreds of
   words per access; the fast path allocates none) so the test only
   trips on a real regression, not on compiler-version noise. *)
let test_warm_path_allocation_ceiling () =
  let m = mk () in
  let base = (Machine.dram_region m).Memmap.base in
  let buf = Bytes.create 4096 in
  Machine.write_from m base buf ~off:0 ~len:4096 (* warm the lines *);
  let mw0 = Gc.minor_words () in
  for _ = 1 to 64 do
    Machine.read_into m base buf ~off:0 ~len:4096;
    Machine.write_from m base buf ~off:0 ~len:4096
  done;
  let per_page = (Gc.minor_words () -. mw0) /. 128.0 in
  if per_page > 64.0 then
    Alcotest.failf "warm 4 KB access allocated %.1f minor words (ceiling 64)" per_page

(* ------------------------- remanence draw ------------------------ *)

(* The per-byte decay loop [Dram.power_cycle] ran before the bulk
   draw, kept here as the oracle: one [Prng.flip] per byte, a decayed
   byte falls to its row's ground state and its label to [Public]. *)
let reference_power_cycle ~prng ~p data shadow =
  for i = 0 to Bytes.length data - 1 do
    if not (Prng.flip prng ~p) then begin
      Bytes.set data i (if (i lsr 6) land 1 = 0 then '\x00' else '\xff');
      Bytes.set shadow i (Taint.to_char Taint.Public)
    end
  done

(* A DRAM of [size] bytes holding seeded random data, with every
   label somewhere in its shadow; [prng] is the one it decays with. *)
let tainted_dram ~size ~prng =
  let clock = Clock.create () in
  let bus = Bus.create ~clock ~energy:(Energy.create ()) in
  let dram = Dram.create ~bus ~clock ~prng ~size in
  Dram.enable_taint dram;
  let fill = Prng.create ~seed:size in
  Bytes.blit (Prng.bytes fill size) 0 (Dram.raw dram) 0 size;
  let base = (Dram.region dram).Memmap.base in
  Dram.set_taint dram (base + 100) (size / 3) Taint.Secret_cleartext;
  Dram.set_taint dram (base + (size / 2)) (size / 4) Taint.Ciphertext;
  Dram.set_powered dram false;
  dram

let test_power_cycle_matches_reference () =
  (* sizes off the 4 KiB draw chunk and the 64-byte row exercise the
     partial last chunk and a partial row *)
  List.iter
    (fun (size, off_s) ->
      let seed = 17 + size in
      let prng = Prng.create ~seed in
      let dram = tainted_dram ~size ~prng in
      let p = Calib.dram_survival ~power_off_s:off_s in
      let ref_prng = Prng.create ~seed in
      let ref_data = Bytes.copy (Dram.raw dram) in
      let ref_shadow = Bytes.copy (Option.get (Dram.shadow dram)) in
      Dram.power_cycle dram ~off_s;
      reference_power_cycle ~prng:ref_prng ~p ref_data ref_shadow;
      let what = Printf.sprintf "%d B after %.1f s" size off_s in
      check_bytes (what ^ ": bytes") ref_data (Dram.raw dram);
      check_bytes (what ^ ": shadow") ref_shadow (Option.get (Dram.shadow dram));
      Alcotest.(check int64)
        (what ^ ": next draw") (Prng.next_int64 ref_prng) (Prng.next_int64 prng))
    [ (Units.mib, 2.0); ((3 * 4096) + 100, 0.5); (4096 + 37, 10.0); (8191, 30.0) ]

(* Hard allocation gates on the cold-boot path: the bulk draw keeps
   its state unboxed, so a power cycle allocates a constant few words
   (its draw mask goes to the major heap), not boxes per byte.  The
   per-byte draw allocated several words per byte. *)
let test_power_cycle_allocation_ceiling () =
  let m = mk () in
  Machine.enable_taint m;
  let dram = Machine.dram m in
  Dram.set_powered dram false;
  let mw0 = Gc.minor_words () in
  Dram.power_cycle dram ~off_s:2.0;
  let words = Gc.minor_words () -. mw0 in
  if words > 1024.0 then
    Alcotest.failf "4 MiB power cycle allocated %.0f minor words (ceiling 1024)" words

let () =
  Alcotest.run "sentry_soc_fastpath"
    [
      ( "differential",
        [
          Alcotest.test_case "into = allocating (taint off)" `Quick test_differential_plain;
          Alcotest.test_case "into = allocating (taint on)" `Quick test_differential_tainted;
        ] );
      ( "aliasing",
        [
          Alcotest.test_case "write-back snapshots" `Quick test_writeback_no_alias;
          Alcotest.test_case "byte accessors" `Quick test_byte_accessors;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warm path ceiling" `Quick test_warm_path_allocation_ceiling;
          Alcotest.test_case "power cycle ceiling" `Quick test_power_cycle_allocation_ceiling;
        ] );
      ( "remanence",
        [ Alcotest.test_case "power cycle = per-byte flip" `Quick test_power_cycle_matches_reference ] );
    ]
