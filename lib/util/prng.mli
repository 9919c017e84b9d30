(** Deterministic pseudo-random number generator (splitmix64).  All
    stochastic behaviour in the simulator draws from an explicit [t]
    so every experiment is reproducible from its seed. *)

type t

val create : seed:int -> t
val copy : t -> t
val next_int64 : t -> int64

(** 62 non-negative random bits. *)
val bits : t -> int

(** Uniform in [0, bound); requires [bound > 0]. *)
val int : t -> int -> int

(** Uniform in [0, bound). *)
val float : t -> float -> float

(** Bernoulli draw with success probability [p]. *)
val flip : t -> p:float -> bool

(** [flips_into t ~p mask ~off ~len] makes [len] successive [flip t ~p]
    draws without allocating: byte [off + i] of [mask] becomes
    ['\xff'] when draw [i] succeeds and ['\x00'] when it fails.  The
    decisions and the final state are exactly those of [len] calls to
    [flip].  Raises [Invalid_argument] if the range is outside [mask]. *)
val flips_into : t -> p:float -> Bytes.t -> off:int -> len:int -> unit

val byte : t -> int
val bytes : t -> int -> Bytes.t

(** Fisher-Yates shuffle, in place. *)
val shuffle : t -> 'a array -> unit

val exponential : t -> mean:float -> float

(** One-shot Zipf draw (degenerate; prefer [zipf_gen]). *)
val zipf : t -> n:int -> s:float -> int

(** Precompute a Zipf CDF once; returns a sampler over ranks
    [0, n). *)
val zipf_gen : n:int -> s:float -> t -> int
