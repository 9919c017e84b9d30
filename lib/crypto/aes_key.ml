(** AES key schedule (FIPS-197 §5.2) for 128/192/256-bit keys. *)

type size = Aes_128 | Aes_192 | Aes_256

let size_of_bytes = function
  | 16 -> Aes_128
  | 24 -> Aes_192
  | 32 -> Aes_256
  | n -> invalid_arg (Printf.sprintf "Aes_key: bad key length %d" n)

let key_bytes = function Aes_128 -> 16 | Aes_192 -> 24 | Aes_256 -> 32
let nk = function Aes_128 -> 4 | Aes_192 -> 6 | Aes_256 -> 8
let rounds = function Aes_128 -> 10 | Aes_192 -> 12 | Aes_256 -> 14

type t = {
  size : size;
  nr : int;
  words : int array; (* 4*(nr+1) round-key words, big-endian packed *)
  dec_words : int array; (* equivalent-inverse-cipher schedule, same size *)
}

let sub_word w =
  let s i = Aes_tables.sbox.((w lsr i) land 0xff) in
  (s 24 lsl 24) lor (s 16 lsl 16) lor (s 8 lsl 8) lor s 0

let rot_word w = ((w lsl 8) lor (w lsr 24)) land 0xffffffff

(* InvMixColumns of one column word (row 0 in the top byte), through
   the decryption tables: [td_sbox_words (sbox b)] is the
   InvMixColumns column of byte [b] in row 0, its rotations rows 1-3. *)
let inv_mix_column w =
  let s i = Aes_tables.sbox.((w lsr i) land 0xff) in
  Aes_tables.td_sbox_words.(s 24)
  lxor Aes_tables.td_sbox_words_r8.(s 16)
  lxor Aes_tables.td_sbox_words_r16.(s 8)
  lxor Aes_tables.td_sbox_words_r24.(s 0)

(* The decryption schedule of the equivalent inverse cipher (FIPS-197
   §5.3.5): round keys in reverse order, with InvMixColumns applied to
   every round key but the first and the last.  Computed once per
   key, so decryption never transforms the schedule per call. *)
let inverse_schedule w nr =
  Array.init
    (4 * (nr + 1))
    (fun i ->
      let r = i / 4 and c = i mod 4 in
      let k = w.((4 * (nr - r)) + c) in
      if r = 0 || r = nr then k else inv_mix_column k)

(** [expand key] computes the full schedule from a raw 16/24/32-byte
    key. *)
let expand key =
  let size = size_of_bytes (Bytes.length key) in
  let nk = nk size and nr = rounds size in
  let total = 4 * (nr + 1) in
  let w = Array.make total 0 in
  for i = 0 to nk - 1 do
    w.(i) <-
      (Char.code (Bytes.get key (4 * i)) lsl 24)
      lor (Char.code (Bytes.get key ((4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get key ((4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get key ((4 * i) + 3))
  done;
  for i = nk to total - 1 do
    let temp = w.(i - 1) in
    let temp =
      if i mod nk = 0 then sub_word (rot_word temp) lxor (Aes_tables.rcon.((i / nk) - 1) lsl 24)
      else if nk > 6 && i mod nk = 4 then sub_word temp
      else temp
    in
    w.(i) <- w.(i - nk) lxor temp
  done;
  { size; nr; words = w; dec_words = inverse_schedule w nr }

(** Round key [r] as 16 bytes (4 words). *)
let round_key t r =
  let b = Bytes.create 16 in
  for c = 0 to 3 do
    let w = t.words.((4 * r) + c) in
    Bytes.set b (4 * c) (Char.chr ((w lsr 24) land 0xff));
    Bytes.set b ((4 * c) + 1) (Char.chr ((w lsr 16) land 0xff));
    Bytes.set b ((4 * c) + 2) (Char.chr ((w lsr 8) land 0xff));
    Bytes.set b ((4 * c) + 3) (Char.chr (w land 0xff))
  done;
  b

(** The whole schedule serialised, 16*(nr+1) bytes — the layout the
    instrumented cipher stores in (simulated) memory, and the layout
    the cold-boot key-schedule scanner searches for. *)
let serialize t =
  let b = Bytes.create (16 * (t.nr + 1)) in
  for r = 0 to t.nr do
    Bytes.blit (round_key t r) 0 b (16 * r) 16
  done;
  b

let schedule_bytes t = 16 * (t.nr + 1)

(** Check whether [b] at [off] satisfies the AES-128 key-expansion
    recurrence for a full 176-byte schedule.  This is the structural
    test the Halderman-style memory scanner uses: a key schedule is
    44 words where w[i] = w[i-4] xor f(w[i-1]). *)
let is_valid_128_schedule b off =
  if off + 176 > Bytes.length b then false
  else begin
    let word i =
      (Char.code (Bytes.get b (off + (4 * i))) lsl 24)
      lor (Char.code (Bytes.get b (off + (4 * i) + 1)) lsl 16)
      lor (Char.code (Bytes.get b (off + (4 * i) + 2)) lsl 8)
      lor Char.code (Bytes.get b (off + (4 * i) + 3))
    in
    (* Reject the degenerate all-zero buffer, which trivially satisfies
       nothing (w4 would need the rcon term). *)
    let rec check i =
      if i = 44 then true
      else
        let temp = word (i - 1) in
        let temp =
          if i mod 4 = 0 then sub_word (rot_word temp) lxor (Aes_tables.rcon.((i / 4) - 1) lsl 24)
          else temp
        in
        if word i <> word (i - 4) lxor temp then false else check (i + 1)
    in
    check 4
  end

(** Extract the original 16-byte key from a schedule found in memory. *)
let key_of_128_schedule b off = Bytes.sub b off 16
