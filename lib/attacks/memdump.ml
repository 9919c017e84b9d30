(** Memory images acquired by an attacker, and searches over them. *)

open Sentry_util

type t = { label : string; base : int; data : Bytes.t }

let of_bytes ~label ~base data = { label; base; data }

let size t = Bytes.length t.data

(** [contains t needle] — the attacker's grep. *)
let contains t needle = Bytes_util.contains t.data needle

let find t needle =
  Option.map (fun off -> t.base + off) (Bytes_util.find t.data needle)

(** [contains_fuzzy t needle ~min_match] finds [needle] tolerating
    bit-decayed bytes: some alignment where at least [min_match]
    (fraction) of the bytes agree.  Real cold-boot tooling
    error-corrects recovered data the same way.  An alignment is
    abandoned as soon as its mismatches rule out [min_match], so most
    offsets cost a few compares instead of one per needle byte; the
    answer is the one a full count at every offset gives. *)
let contains_fuzzy t needle ~min_match =
  let nn = Bytes.length needle and data = t.data in
  let needed = int_of_float (ceil (min_match *. float_of_int nn)) in
  let last = Bytes.length data - nn in
  let found = ref false and i = ref 0 in
  while (not !found) && !i <= last do
    (* [best]: the most matches alignment [i] can still reach *)
    let j = ref 0 and best = ref nn in
    while !best >= needed && !j < nn do
      if Bytes.unsafe_get data (!i + !j) <> Bytes.unsafe_get needle !j then decr best;
      incr j
    done;
    found := !best >= needed;
    incr i
  done;
  nn > 0 && !found

(** Fraction of pattern-aligned slots still holding [pattern] — the
    Table 2 remanence metric. *)
let remanence_ratio t ~pattern =
  let slots = Bytes.length t.data / Bytes.length pattern in
  if slots = 0 then 0.0
  else float_of_int (Bytes_util.count_pattern t.data pattern) /. float_of_int slots

let pp ppf t =
  Fmt.pf ppf "%s: %a at 0x%08x" t.label Units.pp_bytes (size t) t.base
