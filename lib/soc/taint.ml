(** Secret-provenance lattice and shadow-byte stores.

    Every byte of simulated memory (DRAM, iRAM, pinned memory, L2
    lines, CPU registers) can carry a taint label mirroring what the
    byte holds from Sentry's point of view:

    {v
    Public  <  Ciphertext  <  Secret_cleartext
    v}

    - [Secret_cleartext]: key material or sensitive-application
      plaintext.  The security invariant is that such bytes never
      reach DRAM or cross the external bus while the device is locked.
    - [Ciphertext]: output of [Page_crypt] / [Aes_on_soc] encryption.
      Free to live anywhere; decrypting re-raises it to
      [Secret_cleartext].
    - [Public]: everything else (zeroed pages, attacker-supplied DMA
      data, non-sensitive applications).

    Shadow stores are plain byte buffers (one label char per data
    byte) so propagation is the same [blit]/[fill] the data path
    already performs.  They are allocated lazily — taint tracking is
    opt-in (see [Machine.enable_taint]) and costs nothing when off. *)

type level = Public | Ciphertext | Secret_cleartext

let to_char = function Public -> '\000' | Ciphertext -> '\001' | Secret_cleartext -> '\002'

let of_char = function
  | '\000' -> Public
  | '\001' -> Ciphertext
  | _ -> Secret_cleartext

let rank = function Public -> 0 | Ciphertext -> 1 | Secret_cleartext -> 2

let join a b = if rank a >= rank b then a else b

let to_string = function
  | Public -> "public"
  | Ciphertext -> "ciphertext"
  | Secret_cleartext -> "secret-cleartext"

let pp ppf l = Fmt.string ppf (to_string l)

(* ------------------------- shadow buffers ------------------------ *)

(** A shadow for [n] data bytes, all [Public]. *)
let create_shadow n = Bytes.make n (to_char Public)

(** [fill shadow pos len level] labels a range uniformly. *)
let fill shadow pos len level = Bytes.fill shadow pos len (to_char level)

(** [max_range shadow pos len] — the join over a range. *)
let max_range shadow pos len =
  let acc = ref Public in
  for i = pos to pos + len - 1 do
    let l = of_char (Bytes.unsafe_get shadow i) in
    if rank l > rank !acc then acc := l
  done;
  !acc

let get shadow pos = of_char (Bytes.get shadow pos)

(** [runs_at_least shadow ~level ~len] — is there a contiguous run of
    at least [len] bytes labelled [>= level]?  Used by checkers that
    mirror an attacker's contiguous-content search. *)
let runs_at_least shadow ~level ~len =
  let n = Bytes.length shadow in
  let need = rank level in
  let rec scan i run =
    if run >= len then true
    else if i >= n then false
    else if rank (of_char (Bytes.unsafe_get shadow i)) >= need then scan (i + 1) (run + 1)
    else scan (i + 1) 0
  in
  len > 0 && scan 0 0

(** [fuzzy_window shadow ~level ~len ~min_match] — is there a window
    of [len] bytes in which at least [min_match] (fraction) carry a
    label [>= level]?  The taint analogue of an error-correcting
    cold-boot search ([Memdump.contains_fuzzy]). *)
let fuzzy_window shadow ~level ~len ~min_match =
  let n = Bytes.length shadow in
  let need = rank level in
  let needed = int_of_float (ceil (min_match *. float_of_int len)) in
  if len = 0 || n < len then false
  else begin
    let hit i = if rank (of_char (Bytes.unsafe_get shadow i)) >= need then 1 else 0 in
    (* sliding window count *)
    let count = ref 0 in
    for i = 0 to len - 1 do
      count := !count + hit i
    done;
    let rec slide i =
      if !count >= needed then true
      else if i + len >= n then false
      else begin
        count := !count - hit i + hit (i + len);
        slide (i + 1)
      end
    in
    slide 0
  end

(** Labelled runs of [>= level] bytes as [(offset, length)] pairs,
    for violation reports. *)
let runs shadow ~level =
  let n = Bytes.length shadow in
  let need = rank level in
  let acc = ref [] in
  let start = ref (-1) in
  for i = 0 to n - 1 do
    let tainted = rank (of_char (Bytes.unsafe_get shadow i)) >= need in
    if tainted && !start < 0 then start := i
    else if (not tainted) && !start >= 0 then begin
      acc := (!start, i - !start) :: !acc;
      start := -1
    end
  done;
  if !start >= 0 then acc := (!start, n - !start) :: !acc;
  List.rev !acc
