(** The shard driver the multi-tenant workloads share ({!Fleet} and
    the serve front end).  [run] partitions [n] tenants into
    contiguous shards, runs one slice per shard on a
    {!Sentry_util.Dpool} of OCaml domains, and folds the per-shard
    metrics registries and trace recorders in shard-index order.

    Each shard owns a private metrics registry, a trace recorder (only
    when the calling domain traces) and a fault-injector session (only
    with a fault plan), installed in its worker's domain-local slots for
    the duration of the slice.  The partition and every per-shard
    input depend only on [(n, shards)] and the run seed, never on the
    domain count, so merged outputs are bit-identical across
    [domains].  See DESIGN.md §13. *)

(** Default shard count for [n] tenants: [min n 16], at least 1. *)
val default_count : int -> int

(** [(first, count)] per shard: contiguous blocks of ⌈n/shards⌉.
    Pure in [(n, shards)]; [shards] is clamped to [n].  The executing
    domain count never enters. *)
val plan : n:int -> shards:int -> (int * int) list

(** Seed of shard [index]; shard 0 keeps the run seed, so a one-shard
    plan boots exactly like an unsharded run. *)
val seed_for : seed:int -> int -> int

(** [(shards, domains)] for a run given an optional domain count:
    [None] is the one-shard plan on one domain, [Some d] the default
    plan ([shards = None]) on [d] domains. *)
val of_domains : int option -> int option * int

(** One shard's inputs and everything it owned privately. *)
type 'a shard = {
  index : int;
  first : int;  (** global index of the shard's first tenant *)
  count : int;  (** tenants in the shard *)
  seed : int;  (** [seed_for ~seed index] *)
  result : 'a;  (** what the slice returned *)
  metrics : Sentry_obs.Metrics.t;  (** the registry the slice recorded into *)
  recorder : Sentry_obs.Trace.Recorder.t option;
      (** present iff the calling domain had a recorder installed *)
  faults_fired : int;  (** injections the shard's session fired (0 without [faults]) *)
}

type ('a, 'm) t = {
  domains : int;  (** pool size the run executed on *)
  wall_s : float;  (** host time over the whole parallel section *)
  shards : 'a shard list;  (** in shard-index order *)
  merged : 'm;  (** the caller's fold over the shard results, in shard order *)
  merged_metrics : Sentry_obs.Metrics.t;  (** [Metrics.merge] fold, shard order *)
  merged_recorder : Sentry_obs.Trace.Recorder.t option;
      (** [Trace.Recorder.merge] fold, shard order; [None] unless the
          calling domain had a recorder installed at launch *)
  faults_fired : int;  (** summed over shards *)
}

(** [run ~shards ~faults ~seed ~domains ~n ~merge slice] plans
    [shards] shards ({!default_count} when [None]), calls
    [slice ~first ~count ~seed ~metrics] once per shard on a
    [domains]-wide pool, and returns the shards with [merge] applied
    to their results.  A traced caller gets one recorder per shard,
    of its own recorder's capacity.  [Some plan] in [faults] arms a
    per-shard copy of the plan, its seed offset by the shard index;
    interrupting fault kinds propagate out of [run].
    @raise Invalid_argument when [domains <= 0] or [shards <= 0]. *)
val run :
  shards:int option ->
  faults:Sentry_faults.Plan.t option ->
  seed:int ->
  domains:int ->
  n:int ->
  merge:('a list -> 'm) ->
  (first:int -> count:int -> seed:int -> metrics:Sentry_obs.Metrics.t -> 'a) ->
  ('a, 'm) t
