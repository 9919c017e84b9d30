(** Deterministic pseudo-random number generator (splitmix64).

    All stochastic behaviour in the simulator (remanence decay, workload
    traces, key generation) draws from an explicit [t] so that every
    experiment is reproducible from its seed. *)

(* The 64-bit state, kept unboxed in eight bytes: storing a new state
   allocates nothing, where a [mutable int64] field boxes every store. *)
type t = Bytes.t

let[@inline] get t = Bytes.get_int64_ne t 0
let[@inline] set t s = Bytes.set_int64_ne t 0 s

let create ~seed =
  let t = Bytes.create 8 in
  set t (Int64.of_int seed);
  t

let copy = Bytes.copy

let gamma = 0x9E3779B97F4A7C15L

(* splitmix64 output function: two xor-shift-multiply mixing rounds
   and a final xor-shift over the advanced state. *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* splitmix64 step: the golden-gamma increment, then [mix]. *)
let[@inline] next_int64 t =
  let s = Int64.add (get t) gamma in
  set t s;
  mix s

(** [bits t] returns 62 non-negative random bits. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
let int t bound =
  assert (bound > 0);
  bits t mod bound

let two53 = 9007199254740992.0

(* The top 53 bits of a draw, as an exact float integer in [0, 2^53).
   They fit a native int, whose conversion to float is inline (the
   [Int64.to_float] primitive is a C call). *)
let[@inline] draw53 z = Float.of_int (Int64.to_int (Int64.shift_right_logical z 11))

(** [float t bound] is uniform in [0, bound). *)
let float t bound = draw53 (next_int64 t) /. two53 *. bound

(* The one Bernoulli test, shared by [flip] and [flips_into].  A draw
   succeeds when [float t 1.0 < p], i.e. [x /. 2^53 < p] for the 53-bit
   integer [x].  That holds exactly when [x < p *. 2^53]: scaling by a
   power of two is exact on both sides (the quotient needs no rounding,
   the product cannot land in the subnormal range), so comparing
   against the precomputed threshold makes the same decision for every
   [p], NaN and out-of-range values included, without a division. *)
let[@inline] threshold p = p *. two53

(** Bernoulli draw with success probability [p]. *)
let flip t ~p = draw53 (next_int64 t) < threshold p

(** [flips_into t ~p mask ~off ~len] makes [len] successive [flip t ~p]
    draws into [mask] (['\xff'] success, ['\x00'] failure).  The state
    lives unboxed in a local for the loop and is stored once. *)
let flips_into t ~p mask ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length mask - len then invalid_arg "Prng.flips_into";
  let thr = threshold p in
  let s = ref (get t) in
  for i = off to off + len - 1 do
    s := Int64.add !s gamma;
    (* -1 or 0 from the comparison, no branch *)
    let hit = - Bool.to_int (draw53 (mix !s) < thr) in
    Bytes.unsafe_set mask i (Char.unsafe_chr (hit land 0xff))
  done;
  set t !s

(** [byte t] is uniform in [0, 256). *)
let byte t = int t 256

(** [bytes t n] is an [n]-byte random string. *)
let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.chr (byte t))
  done;
  b

(** Fisher-Yates shuffle of an array, in place. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(** Exponentially distributed draw with the given [mean]. *)
let exponential t ~mean =
  let u = Stdlib.max 1e-12 (float t 1.0) in
  -. mean *. log u

(** Zipf-like rank selection over [n] items with skew [s]; used by
    workload generators to model hot/cold page popularity. *)
let zipf t ~n ~s =
  assert (n > 0);
  (* Inverse-CDF by linear walk over precomputed weights would be O(n)
     per draw; instead use rejection-free cumulative table cached per
     call site.  For simulator trace sizes (n <= 2^20) a one-off table
     is fine, so we expose a generator factory. *)
  ignore s;
  int t n

(** [zipf_gen ~n ~s] precomputes the CDF once and returns a sampler. *)
let zipf_gen ~n ~s =
  assert (n > 0);
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cdf.(i) <- !acc /. total)
    weights;
  fun t ->
    let u = float t 1.0 in
    (* binary search for the first index with cdf >= u *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
    in
    search 0 (n - 1)
