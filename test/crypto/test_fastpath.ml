(* Differential tests for the zero-allocation crypto fast path: the
   in-place [_into] cipher modes and the cached-cipher bulk path must
   produce bit-identical bytes — and, on the SoC, bit-identical
   simulated clock/energy — to the allocating entry points. *)

open Sentry_util
open Sentry_soc
open Sentry_crypto

let check_bytes = Alcotest.(check bytes)
let checkf = Alcotest.(check (float 0.0)) (* exact: bit-identity, not tolerance *)

let key = Bytes.of_string "sixteen byte key"
let iv = Bytes.init 16 (fun i -> Char.chr (0x30 + i))
let cipher () = Mode.of_key (Aes.expand key)
let payload n = Bytes.init n (fun i -> Char.chr ((i * 11) land 0xff))

(* ------------------------ mode _into twins ------------------------ *)

let test_cbc_into_matches_allocating () =
  let c = cipher () in
  List.iter
    (fun n ->
      let data = payload n in
      let expected = Mode.cbc_encrypt c ~iv data in
      (* out-of-place, at a shifted view inside an oversized buffer *)
      let src = Bytes.make (n + 24) '\x5a' in
      Bytes.blit data 0 src 16 n;
      let dst = Bytes.make (n + 8) '\x00' in
      Mode.cbc_encrypt_into c ~iv ~src ~src_off:16 ~dst ~dst_off:8 ~len:n;
      check_bytes "cbc encrypt view" expected (Bytes.sub dst 8 n);
      let back = Bytes.make n '\x00' in
      Mode.cbc_decrypt_into c ~iv ~src:dst ~src_off:8 ~dst:back ~dst_off:0 ~len:n;
      check_bytes "cbc decrypt view" data back)
    [ 16; 64; 4096 ]

let test_cbc_into_in_place () =
  let c = cipher () in
  let data = payload 4096 in
  let expected = Mode.cbc_encrypt c ~iv data in
  let buf = Bytes.copy data in
  let scratch = Mode.make_scratch () in
  Mode.cbc_encrypt_into ~scratch c ~iv ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:4096;
  check_bytes "in-place encrypt" expected buf;
  Mode.cbc_decrypt_into ~scratch c ~iv ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:4096;
  check_bytes "in-place decrypt" data buf

let test_scratch_reuse_is_stateless () =
  let c = cipher () in
  let scratch = Mode.make_scratch () in
  let data = payload 256 in
  let one = Bytes.copy data and two = Bytes.copy data in
  Mode.cbc_encrypt_into ~scratch c ~iv ~src:one ~src_off:0 ~dst:one ~dst_off:0 ~len:256;
  (* a second transform through the same scratch must not be affected
     by whatever the first left behind *)
  Mode.cbc_encrypt_into ~scratch c ~iv ~src:two ~src_off:0 ~dst:two ~dst_off:0 ~len:256;
  check_bytes "scratch carries no state" one two

let test_ecb_into_matches_allocating () =
  let c = cipher () in
  let data = payload 128 in
  let expected = Mode.ecb_encrypt c data in
  let buf = Bytes.copy data in
  Mode.ecb_encrypt_into c ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:128;
  check_bytes "ecb encrypt in place" expected buf;
  Mode.ecb_decrypt_into c ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:128;
  check_bytes "ecb decrypt in place" data buf

let test_xts_into_matches_allocating () =
  let k = Xts.expand (Bytes.of_string "0123456789abcdefFEDCBA9876543210") in
  let tweak = Xts.tweak_of_sector 42 in
  let data = payload 512 in
  let expected = Xts.encrypt k ~tweak data in
  let buf = Bytes.copy data in
  Xts.transform_into k ~dir:`Encrypt ~tweak ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:512;
  check_bytes "xts encrypt in place" expected buf;
  Xts.transform_into k ~dir:`Decrypt ~tweak ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:512;
  check_bytes "xts decrypt in place" data buf

let test_cbc_into_rejects_bad_iv () =
  let c = cipher () in
  let buf = payload 32 in
  Alcotest.check_raises "short iv" (Invalid_argument "Mode.cbc_encrypt_into: bad IV") (fun () ->
      Mode.cbc_encrypt_into c ~iv:(Bytes.create 8) ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:32)

(* --------------------- on-SoC bulk differential ------------------- *)

let boot () = Machine.create ~seed:33 (Machine.tegra3 ~dram_size:(4 * Units.mib) ())

let mk_aes m = Aes_on_soc.create m ~storage:Aes_on_soc.In_iram ~base:(Machine.iram_region m).Memmap.base ~key

(* The cached-cipher [bulk_into] path must charge the same simulated
   clock and energy as the allocating [bulk], and write the same
   ciphertext. *)
let test_bulk_into_differential () =
  let data = payload 8192 in
  let m_a = boot () in
  let out_a = Aes_on_soc.bulk (mk_aes m_a) ~dir:`Encrypt ~iv data in
  let m_b = boot () in
  let out_b = Bytes.copy data in
  Aes_on_soc.bulk_into (mk_aes m_b) ~dir:`Encrypt ~iv ~src:out_b ~src_off:0 ~dst:out_b ~dst_off:0
    ~len:8192;
  check_bytes "ciphertext" out_a out_b;
  checkf "simulated clock" (Machine.now m_a) (Machine.now m_b);
  checkf "energy total" (Energy.total (Machine.energy m_a)) (Energy.total (Machine.energy m_b))

let test_bulk_roundtrip () =
  let m = boot () in
  let a = mk_aes m in
  let data = payload 4096 in
  let ct = Aes_on_soc.bulk a ~dir:`Encrypt ~iv data in
  check_bytes "roundtrip" data (Aes_on_soc.bulk a ~dir:`Decrypt ~iv ct)

(* Re-keying must refresh the cached bulk cipher together with the
   on-SoC context: after [set_key] the bulk output matches a fresh
   instance created with the new key, not the old one. *)
let test_set_key_refreshes_cached_cipher () =
  let key2 = Bytes.of_string "another 16b key!" in
  let data = payload 256 in
  let m = boot () in
  let a = mk_aes m in
  let old_ct = Aes_on_soc.bulk a ~dir:`Encrypt ~iv data in
  Aes_on_soc.set_key a key2;
  let new_ct = Aes_on_soc.bulk a ~dir:`Encrypt ~iv data in
  let m2 = boot () in
  let fresh = Aes_on_soc.create m2 ~storage:Aes_on_soc.In_iram ~base:(Machine.iram_region m2).Memmap.base ~key:key2 in
  check_bytes "matches fresh instance under the new key" (Aes_on_soc.bulk fresh ~dir:`Encrypt ~iv data) new_ct;
  if Bytes.equal old_ct new_ct then Alcotest.fail "re-key did not change the bulk output";
  check_bytes "decrypts under the new key" data (Aes_on_soc.bulk a ~dir:`Decrypt ~iv new_ct)

(* Allocation regression for the cipher core: a warm in-place CBC
   transform over a reusable scratch must stay (near) allocation free.
   The ceiling is far below the old per-call closure cost (~115 words
   per block) and far above harmless noise. *)
let test_cbc_into_allocation_ceiling () =
  let c = cipher () in
  let scratch = Mode.make_scratch () in
  let buf = payload 4096 in
  Mode.cbc_encrypt_into ~scratch c ~iv ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:4096;
  let mw0 = Gc.minor_words () in
  for _ = 1 to 64 do
    Mode.cbc_encrypt_into ~scratch c ~iv ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 ~len:4096
  done;
  let per_page = (Gc.minor_words () -. mw0) /. 64.0 in
  if per_page > 256.0 then
    Alcotest.failf "cbc_encrypt_into allocated %.1f minor words per page (ceiling 256)" per_page

(* ------------------ equivalent-inverse decrypt kernel ------------- *)

(* The decrypt kernel before the equivalent inverse cipher, kept here
   as an oracle: the direct-order inverse cipher (InvShiftRows +
   InvSubBytes through the inverse S-box, then AddRoundKey and
   InvMixColumns through the raw [td_entry] tables) over the forward
   schedule applied backwards, with the CBC chain folded into the
   final round's store. *)
module Direct_order = struct
  let pack (b0, b1, b2, b3) = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
  let ror8 w = ((w lsr 8) lor ((w land 0xff) lsl 24)) land 0xffffffff
  let td0 = Array.init 256 (fun x -> pack (Aes_tables.td_entry x))
  let td1 = Array.map ror8 td0
  let td2 = Array.map ror8 td1
  let td3 = Array.map ror8 td2
  let isbox = Aes_tables.inv_sbox

  let get_word b off =
    (Char.code (Bytes.get b off) lsl 24)
    lor (Char.code (Bytes.get b (off + 1)) lsl 16)
    lor (Char.code (Bytes.get b (off + 2)) lsl 8)
    lor Char.code (Bytes.get b (off + 3))

  let set_word b off w =
    Bytes.set b off (Char.chr ((w lsr 24) land 0xff));
    Bytes.set b (off + 1) (Char.chr ((w lsr 16) land 0xff));
    Bytes.set b (off + 2) (Char.chr ((w lsr 8) land 0xff));
    Bytes.set b (off + 3) (Char.chr (w land 0xff))

  let shift_sub a b c d =
    (isbox.((a lsr 24) land 0xff) lsl 24)
    lor (isbox.((b lsr 16) land 0xff) lsl 16)
    lor (isbox.((c lsr 8) land 0xff) lsl 8)
    lor isbox.(d land 0xff)

  let mix rk r4 i t =
    let w = t lxor rk.(r4 + i) in
    td0.((w lsr 24) land 0xff)
    lxor td1.((w lsr 16) land 0xff)
    lxor td2.((w lsr 8) land 0xff)
    lxor td3.(w land 0xff)

  let rec rounds rk dst off round s0 s1 s2 s3 x0 x1 x2 x3 =
    let t0 = shift_sub s0 s3 s2 s1 and t1 = shift_sub s1 s0 s3 s2
    and t2 = shift_sub s2 s1 s0 s3 and t3 = shift_sub s3 s2 s1 s0 in
    if round = 0 then begin
      set_word dst off (t0 lxor rk.(0) lxor x0);
      set_word dst (off + 4) (t1 lxor rk.(1) lxor x1);
      set_word dst (off + 8) (t2 lxor rk.(2) lxor x2);
      set_word dst (off + 12) (t3 lxor rk.(3) lxor x3)
    end
    else
      let r4 = 4 * round in
      rounds rk dst off (round - 1) (mix rk r4 0 t0) (mix rk r4 1 t1) (mix rk r4 2 t2)
        (mix rk r4 3 t3) x0 x1 x2 x3

  let cbc_decrypt_into (k : Aes_key.t) ~iv ~iv_off buf off nblocks =
    let rk = k.Aes_key.words and nr4 = 4 * k.Aes_key.nr in
    let c = Array.init 4 (fun j -> get_word iv (iv_off + (4 * j))) in
    for i = 0 to nblocks - 1 do
      let o = off + (16 * i) in
      let w = Array.init 4 (fun j -> get_word buf (o + (4 * j))) in
      rounds rk buf o (k.Aes_key.nr - 1)
        (w.(0) lxor rk.(nr4)) (w.(1) lxor rk.(nr4 + 1)) (w.(2) lxor rk.(nr4 + 2))
        (w.(3) lxor rk.(nr4 + 3)) c.(0) c.(1) c.(2) c.(3);
      Array.blit w 0 c 0 4
    done
end

(* The new kernel against both oracles: the old direct-order kernel
   (above) and the instrumented [Aes_block] through [Mode] (the
   simulated cipher).  Random AES-128/192/256 keys, random IVs at a
   random offset inside a larger IV buffer, 0-300 blocks at a random
   offset, decrypted in place; the bytes around the view must stay
   untouched, and [decrypt_block] must agree block by block. *)
let qcheck_decrypt_kernel =
  QCheck.Test.make ~name:"cbc_decrypt_into = direct order = Aes_block" ~count:150
    QCheck.(
      make
        Gen.(
          let* klen = oneofl [ 16; 24; 32 ] in
          let* key = string_size (return klen) in
          let* iv_off = int_range 0 15 in
          let* iv = string_size (return (iv_off + 16 + 3)) in
          let* nblocks = frequency [ (1, int_range 0 2); (3, int_range 0 300) ] in
          let* off = int_range 0 15 in
          let* data = string_size (return (off + (16 * nblocks) + 5)) in
          return (key, iv_off, iv, nblocks, off, data)))
    (fun (key, iv_off, iv, nblocks, off, data) ->
      let key = Bytes.of_string key and iv = Bytes.of_string iv in
      let data = Bytes.of_string data in
      let k = Aes.expand key in
      let fused = Bytes.copy data and direct = Bytes.copy data in
      Aes.cbc_decrypt_into k ~iv ~iv_off fused off nblocks;
      Direct_order.cbc_decrypt_into k ~iv ~iv_off direct off nblocks;
      let len = 16 * nblocks in
      let blk = Aes_block.init (Accessor.native (Bytes.make 4096 '\000')) ~key in
      let instrumented = Bytes.copy data in
      Mode.cbc_decrypt_into (Aes_block.cipher blk) ~iv:(Bytes.sub iv iv_off 16) ~src:data
        ~src_off:off ~dst:instrumented ~dst_off:off ~len;
      let blocks_agree =
        List.for_all
          (fun i ->
            let a = Bytes.create 16 and b = Bytes.create 16 in
            Aes.decrypt_block k data (off + (16 * i)) a 0;
            Aes_block.decrypt_block blk data (off + (16 * i)) b 0;
            Bytes.equal a b)
          (List.init (min nblocks 4) Fun.id)
      in
      Bytes.equal fused direct && Bytes.equal fused instrumented && blocks_agree)

(* FIPS-197 Appendix C: the example vectors for all three key sizes,
   decrypted by [decrypt_block] and by the CBC kernel with an all-zero
   IV (one CBC block under a zero IV is the bare cipher), at offsets. *)
let test_fips197_app_c_decrypt () =
  let hex = Hex.decode in
  List.iter
    (fun (k, pt, ct) ->
      let k = Aes.expand (hex k) in
      check_bytes ("decrypt_block " ^ ct) (hex pt) (Aes.decrypt_block_copy k (hex ct));
      let buf = Bytes.cat (Bytes.make 5 'x') (hex ct) in
      let iv = Bytes.make 19 '\000' in
      Aes.cbc_decrypt_into k ~iv ~iv_off:3 buf 5 1;
      check_bytes ("cbc_decrypt_into " ^ ct) (hex pt) (Bytes.sub buf 5 16);
      check_bytes "prefix untouched" (Bytes.make 5 'x') (Bytes.sub buf 0 5))
    [
      ( "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a" );
      ( "000102030405060708090a0b0c0d0e0f1011121314151617",
        "00112233445566778899aabbccddeeff",
        "dda97ca4864cdfe06eaf70a0ec0d7191" );
      ( "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        "00112233445566778899aabbccddeeff",
        "8ea2b7ca516745bfeafc49904b496089" );
    ]

(* The decryption schedule is built once, by [expand]: its first and
   last round keys are the forward schedule's last and first, and
   decrypting never rewrites it. *)
let test_dec_schedule_stored () =
  List.iter
    (fun klen ->
      let k = Aes.expand (payload klen) in
      let nr4 = 4 * k.Aes_key.nr in
      let w = k.Aes_key.words and dw = k.Aes_key.dec_words in
      Alcotest.(check int) "schedule size" (Array.length w) (Array.length dw);
      for c = 0 to 3 do
        Alcotest.(check int) "first = last forward" w.(nr4 + c) dw.(c);
        Alcotest.(check int) "last = first forward" w.(c) dw.(nr4 + c)
      done;
      let before = Array.copy dw in
      let buf = payload 4096 in
      Aes.cbc_decrypt_into k ~iv buf 0 256;
      Alcotest.(check bool) "schedule unchanged by use" true (before = k.Aes_key.dec_words))
    [ 16; 24; 32 ]

(* An out-of-place [bulk_into] decrypt copies the ciphertext into
   [dst] and decrypts there: [src] is left alone and [dst] matches the
   in-place result. *)
let test_bulk_into_out_of_place_decrypt () =
  let data = payload 4096 in
  let m = boot () in
  let a = mk_aes m in
  let ct = Aes_on_soc.bulk a ~dir:`Encrypt ~iv data in
  let src = Bytes.copy ct and dst = Bytes.make 4200 '\xee' in
  Aes_on_soc.bulk_into a ~dir:`Decrypt ~iv ~src ~src_off:0 ~dst ~dst_off:50 ~len:4096;
  check_bytes "cleartext at the dst view" data (Bytes.sub dst 50 4096);
  check_bytes "src untouched" ct src;
  check_bytes "dst prefix untouched" (Bytes.make 50 '\xee') (Bytes.sub dst 0 50);
  (* one buffer, overlapping views at different offsets *)
  let buf = Bytes.make 4160 '\x00' in
  Bytes.blit ct 0 buf 0 4096;
  Aes_on_soc.bulk_into a ~dir:`Decrypt ~iv ~src:buf ~src_off:0 ~dst:buf ~dst_off:48 ~len:4096;
  check_bytes "cleartext at the shifted view" data (Bytes.sub buf 48 4096)

(* Hard gate: the page decrypt kernel allocates nothing. *)
let test_cbc_decrypt_into_allocation_free () =
  let buf = payload 4096 in
  List.iter
    (fun klen ->
      let k = Aes.expand (payload klen) in
      Aes.cbc_decrypt_into k ~iv buf 0 256;
      let mw0 = Gc.minor_words () in
      for _ = 1 to 64 do
        Aes.cbc_decrypt_into k ~iv buf 0 256
      done;
      let words = Gc.minor_words () -. mw0 in
      if words > 0.0 then
        Alcotest.failf "Aes.cbc_decrypt_into (%d-byte key) allocated %.0f minor words over 64 pages"
          klen words)
    [ 16; 24; 32 ]

let () =
  Alcotest.run "sentry_crypto_fastpath"
    [
      ( "modes",
        [
          Alcotest.test_case "cbc into = allocating" `Quick test_cbc_into_matches_allocating;
          Alcotest.test_case "cbc in place" `Quick test_cbc_into_in_place;
          Alcotest.test_case "scratch reuse" `Quick test_scratch_reuse_is_stateless;
          Alcotest.test_case "ecb into = allocating" `Quick test_ecb_into_matches_allocating;
          Alcotest.test_case "xts into = allocating" `Quick test_xts_into_matches_allocating;
          Alcotest.test_case "bad iv rejected" `Quick test_cbc_into_rejects_bad_iv;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "bulk_into differential" `Quick test_bulk_into_differential;
          Alcotest.test_case "bulk roundtrip" `Quick test_bulk_roundtrip;
          Alcotest.test_case "set_key refreshes cipher" `Quick test_set_key_refreshes_cached_cipher;
          Alcotest.test_case "out-of-place decrypt" `Quick test_bulk_into_out_of_place_decrypt;
        ] );
      ( "decrypt-kernel",
        [
          QCheck_alcotest.to_alcotest qcheck_decrypt_kernel;
          Alcotest.test_case "fips-197 app. c decrypt" `Quick test_fips197_app_c_decrypt;
          Alcotest.test_case "schedule stored" `Quick test_dec_schedule_stored;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "cbc into ceiling" `Quick test_cbc_into_allocation_ceiling;
          Alcotest.test_case "cbc decrypt kernel allocation free" `Quick
            test_cbc_decrypt_into_allocation_free;
        ] );
    ]
