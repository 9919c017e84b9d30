(** Multi-tenant fleet churn workload: N sensitive processes × M
    pages through repeated lock / background-service-wake / unlock
    cycles with dm-crypt I/O interleaved while locked.  The stress
    case for the batched lock/unlock pipeline, and the source of the
    per-tenant-class unlock-to-first-touch latency distributions the
    SLO gate watches.

    Every run goes through the {!Shard} driver: [run_sharded] splits
    the tenants into contiguous shards, each owning a private
    [System], PRNG seed and pid range plus the registry, recorder and
    fault session {!Shard.run} gives it, and runs them on a pool of
    OCaml 5 domains.  Merged outputs are bit-identical across the
    domain count; [run] without [~domains] is the one-shard plan on
    one domain.  See DESIGN.md §13. *)

open Sentry_core

type config = {
  procs : int;  (** N sensitive processes *)
  pages_per_proc : int;  (** M pages in a medium tenant's main region *)
  cycles : int;  (** lock → service wakes → unlock rounds *)
  touch_fraction : float;  (** fraction of pages faulted in after unlock *)
  service_wakes : int;  (** background timer wakes per locked period *)
  io_sectors : int;  (** dm-crypt sectors written+read per wake *)
  backend : Sentry.backend;  (** protection backend driving every slice *)
}

(** 8 procs × 16 pages, 3 cycles, 25% touch, 1 wake × 8 sectors,
    batched. *)
val default : config

(** Stable label for a backend ("batched" / "per-page" / "offload" /
    "no-access"); alias of [Backend.kind_name]. *)
val backend_label : Sentry.backend -> string

(** Tenant class by (global) spawn index: every 4th process is
    ["large"] (2×M pages + a DMA region), every 4k+3rd ["small"] (M/2
    pages), the rest ["medium"] (M pages). *)
val tenant_class : index:int -> string

(** Main-region pages for the tenant at [index] when a medium tenant
    gets [pages_per_proc] (large 2×, small half, floor 1). *)
val main_pages_for : index:int -> pages_per_proc:int -> int

(** DMA-region pages for the tenant at [index]: a quarter of
    [pages_per_proc] for large tenants (floor 1), 0 for the rest. *)
val dma_pages_for : index:int -> pages_per_proc:int -> int

type latency = {
  count : int;
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
}

(** [(tenant_class, latency)] per class, sorted by class name, from
    [(tenant_class, ns)] samples. *)
val summarize_by_class : (string * float) list -> (string * latency) list

type stats = {
  config : config;
  fleet_pages : int;  (** resident pages across the fleet (incl. DMA) *)
  pages_locked : int;  (** summed over all lock passes *)
  pages_unlocked_eager : int;  (** DMA pages decrypted eagerly *)
  pages_faulted : int;  (** lazy decrypt faults served *)
  service_wakes_run : int;
  io_sectors_done : int;  (** dm-crypt sectors written + read *)
  lock_wall_s : float;
      (** host time inside the lock passes, summed over shards (the
          whole parallel section is the shard driver's [wall_s]) *)
  unlock_wall_s : float;  (** host time inside the unlock passes, summed over shards *)
  lock_pages_per_s : float;  (** pages_locked / lock_wall_s (host) *)
  unlock_to_first_touch_ns : float;
      (** simulated ns from unlock start to a tenant's first page
          being readable, averaged over every tenant and cycle *)
  first_touch_samples : (string * float) list;
      (** every (tenant_class, latency_ns) sample in service order —
          the raw distribution behind [latency_by_class] *)
  latency_by_class : (string * latency) list;
      (** per-tenant-class summary, sorted by class name *)
  sim_elapsed_ns : float;
      (** simulated time the run consumed; in a merge, the slowest
          shard's (shards are concurrent in simulated time too) *)
  energy_j : float;  (** metered AES energy over the run *)
}

(** End-of-run digests of one tenant's crypto-relevant state: the
    ESSIV IV stream over every (pid, vpn) page, and the page-table
    entries.  Pids feed the IVs, so these digests catch any drift in
    pid assignment or page-table outcome between execution
    strategies — the D=1 vs D=4 differential compares them. *)
type fingerprint = {
  tenant_index : int;  (** global spawn index *)
  tenant_pid : int;
  tenant_cls : string;
  essiv_md5 : string;
  pte_md5 : string;
}

(** Feed first-touch samples into a registry as the labeled histogram
    [workloads.fleet/unlock_to_first_touch_ns{backend=…,tenant_class=…}]. *)
val record_latencies :
  Sentry_obs.Metrics.t -> backend:Sentry.backend -> (string * float) list -> unit

(** [spawn_slice system sentry ~prefix ~pages_per_proc ~first ~count]
    spawns tenants [first .. first+count-1] with the class mix above,
    named [prefix] followed by the three-digit global index, fills
    every region with a pattern built from the name, and marks them
    sensitive.  Returns [(process, main region, tenant class)] in
    spawn order. *)
val spawn_slice :
  System.t ->
  Sentry.t ->
  prefix:string ->
  pages_per_proc:int ->
  first:int ->
  count:int ->
  (Sentry_kernel.Process.t * Sentry_kernel.Address_space.region * string) list

(** A sharded run: per shard, the slice stats and its tenants'
    fingerprints; [merged] folds the shard stats (sums, the slowest
    shard's simulated time, samples concatenated in shard order). *)
type sharded = (stats * fingerprint list, stats) Shard.t

(** [run_sharded ~domains cfg] runs the fleet through {!Shard.run}:
    [?shards] shards (default {!Shard.default_count}) of one
    [run_slice] each, on a [domains]-wide pool.  [?faults] arms a
    per-shard copy of the plan (seed offset by shard index);
    interrupting fault kinds propagate out of [run_sharded].  Merged
    outputs are invariant in [domains]; only the host walls change.
    @raise Invalid_argument on invalid [cfg], [domains <= 0] or
    [shards <= 0]. *)
val run_sharded :
  ?platform:Config.platform ->
  ?seed:int ->
  ?shards:int ->
  ?faults:Sentry_faults.Plan.t ->
  domains:int ->
  config ->
  sharded

(** Per-tenant fingerprints of a sharded run, in tenant order. *)
val fingerprints : sharded -> fingerprint list

(** [run cfg] boots a fresh system per shard, spawns the fleet
    (heterogeneous tenant classes, large tenants carry a DMA region),
    and drives [cfg.cycles] rounds of suspend → service wakes
    (dm-crypt I/O) → unlock → per-tenant first-touch sampling → touch
    churn, returning the merged stats.  Simulated outputs are
    backend-independent across the crypto backends; host wall-clock
    is what [cfg.backend] changes.  With [?metrics], first-touch
    samples are recorded via {!record_latencies}.

    Without [?domains] this is [run_sharded ~shards:1 ~domains:1]; with
    [~domains:d] it is [run_sharded ~domains:d] with the default shard
    count.  Trace events go to the shards' recorders; use
    {!run_sharded} to get them merged.
    @raise Invalid_argument on non-positive [procs], [pages_per_proc]
    or [cycles]. *)
val run :
  ?platform:Config.platform ->
  ?seed:int ->
  ?metrics:Sentry_obs.Metrics.t ->
  ?domains:int ->
  config ->
  stats

val pp : Format.formatter -> stats -> unit

(** Per-shard lines (tenant/pid/seed ranges, pages locked, faults
    fired) followed by the merged {!pp}. *)
val pp_sharded : Format.formatter -> sharded -> unit
