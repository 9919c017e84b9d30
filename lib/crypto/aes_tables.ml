(** AES lookup tables, derived at startup from [Gf256].

    The layout matches the paper's Table 4 accounting: one 1 KB
    encryption round table and one 1 KB decryption round table
    ("2 Round Tables, 2048 bytes"), the forward and inverse S-boxes
    ("2 S-box, 512 bytes") and the 40-byte Rcon array.  None of these
    contents is secret, but the {e order} in which entries are read
    during a block operation leaks key material to a bus monitor —
    they are the cipher's access-protected state. *)

let sbox = Array.init 256 Gf256.sbox_entry

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i s -> t.(s) <- i) sbox;
  t

(** Rcon as ten 4-byte words: [x^(i) | 0 | 0 | 0]. *)
let rcon =
  let r = Array.make 10 0 in
  let x = ref 1 in
  for i = 0 to 9 do
    r.(i) <- !x;
    x := Gf256.xtime !x
  done;
  r

(** Encryption round table: entry [x] packs the MixColumns column
    produced by S-box output [s = sbox x]: bytes (2s, s, s, 3s). *)
let te_entry x =
  let s = sbox.(x) in
  (Gf256.mul 2 s, s, s, Gf256.mul 3 s)

(** Decryption (InvMixColumns) table: entry [x] packs the column for a
    raw state byte [x]: bytes (14x, 9x, 13x, 11x).  Indexed by state
    bytes after AddRoundKey, so its access pattern is key-dependent
    just like [te]. *)
let td_entry x = (Gf256.mul 14 x, Gf256.mul 9 x, Gf256.mul 13 x, Gf256.mul 11 x)

(* Word-packed copies for the fast (native) implementation.  Byte 0 of
   the tuple is the most significant byte of the word. *)
let pack (b0, b1, b2, b3) = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3

let te_words = Array.init 256 (fun x -> pack (te_entry x))

(* Host-side decryption round table for the equivalent inverse cipher
   (FIPS-197 §5.3.5): entry [x] is the InvMixColumns column of
   [inv_sbox x], i.e. [td_entry] composed with the inverse S-box, so
   one lookup does InvSubBytes and InvMixColumns together.  Only the
   fast cipher uses it; the simulated on-SoC context keeps the
   Table 4 layout ([td_bytes] and [inv_sbox_bytes]). *)
let td_sbox_words = Array.init 256 (fun x -> pack (td_entry inv_sbox.(x)))

(* Byte-rotated copies of the round tables.  A textbook T-table round
   computes [te x], [ror8 (te y)], [ror16 (te z)], [ror24 (te w)]; the
   fast cipher trades 1 KB per rotation for doing no rotation work in
   the inner loop.  Derived, never secret — exactly as
   access-protected as the base tables they alias. *)
let ror8 w = ((w lsr 8) lor ((w land 0xff) lsl 24)) land 0xffffffff

let te_words_r8 = Array.map ror8 te_words
let te_words_r16 = Array.map ror8 te_words_r8
let te_words_r24 = Array.map ror8 te_words_r16
let td_sbox_words_r8 = Array.map ror8 td_sbox_words
let td_sbox_words_r16 = Array.map ror8 td_sbox_words_r8
let td_sbox_words_r24 = Array.map ror8 td_sbox_words_r16

(** Serialised forms used to place the tables in simulated memory for
    the instrumented cipher.  Entry [x] occupies bytes [4x..4x+3]. *)
let serialize_table entry =
  let b = Bytes.create 1024 in
  for x = 0 to 255 do
    let b0, b1, b2, b3 = entry x in
    Bytes.set b (4 * x) (Char.chr b0);
    Bytes.set b ((4 * x) + 1) (Char.chr b1);
    Bytes.set b ((4 * x) + 2) (Char.chr b2);
    Bytes.set b ((4 * x) + 3) (Char.chr b3)
  done;
  b

let te_bytes = serialize_table te_entry
let td_bytes = serialize_table td_entry

let sbox_bytes =
  let b = Bytes.create 256 in
  Array.iteri (fun i s -> Bytes.set b i (Char.chr s)) sbox;
  b

let inv_sbox_bytes =
  let b = Bytes.create 256 in
  Array.iteri (fun i s -> Bytes.set b i (Char.chr s)) inv_sbox;
  b

let rcon_bytes =
  let b = Bytes.make 40 '\000' in
  Array.iteri (fun i r -> Bytes.set b (4 * i) (Char.chr r)) rcon;
  b
