(** The shard driver the multi-tenant workloads share: a pure plan,
    per-worker ambient setup, the [Dpool] fan-out and the shard-order
    folds.  See the interface and DESIGN.md §13. *)

open Sentry_util
module Metrics = Sentry_obs.Metrics
module Trace = Sentry_obs.Trace
module Injector = Sentry_faults.Injector
module Plan = Sentry_faults.Plan

let default_count n = max 1 (min n 16)

(* Contiguous blocks of ceil(n/shards) tenants.  The partition is a
   pure function of (n, shards) — the domain count never enters,
   which is what makes D=1 and D=4 runs merge to identical outputs. *)
let plan ~n ~shards =
  let shards = max 1 (min shards n) in
  let block = (n + shards - 1) / shards in
  let rec go s acc =
    let first = s * block in
    if first >= n then List.rev acc else go (s + 1) ((first, min block (n - first)) :: acc)
  in
  go 0 []

(* Any injective map of the shard index works; the spread keeps
   neighbouring shards' PRNG streams unrelated. *)
let seed_for ~seed index = seed + (index * 7919)

let of_domains = function None -> (Some 1, 1) | Some d -> (None, d)

type 'a shard = {
  index : int;
  first : int;
  count : int;
  seed : int;
  result : 'a;
  metrics : Metrics.t;
  recorder : Trace.Recorder.t option;
  faults_fired : int;
}

type ('a, 'm) t = {
  domains : int;
  wall_s : float;
  shards : 'a shard list;
  merged : 'm;
  merged_metrics : Metrics.t;
  merged_recorder : Trace.Recorder.t option;
  faults_fired : int;
}

let run ~shards ~faults ~seed ~domains ~n ~merge slice =
  if domains <= 0 then invalid_arg "Shard.run: domains must be positive";
  let shards =
    match shards with
    | Some s when s <= 0 -> invalid_arg "Shard.run: shards must be positive"
    | Some s -> s
    | None -> default_count n
  in
  (* Shards trace iff the caller's domain traces, into recorders of
     the same capacity.  Capture the decision here: the pool workers
     are fresh domains whose ambient slots start empty. *)
  let capacity =
    Option.map (fun r -> (Trace.Recorder.stats r).Trace.capacity) (Trace.installed ())
  in
  let task index (first, count) () =
    (* The shard's recorder and fault session live in this worker's
       domain-local slots for the duration of the slice, and are torn
       down even on raise so a pooled worker never leaks them into its
       next job. *)
    let recorder =
      Option.map
        (fun capacity ->
          let r = Trace.Recorder.create ~capacity () in
          Trace.install r;
          r)
        capacity
    in
    let session =
      Option.map
        (fun (p : Plan.t) ->
          let s = Injector.create { p with Plan.seed = p.Plan.seed + index } in
          Injector.activate s;
          s)
        faults
    in
    Fun.protect
      ~finally:(fun () ->
        Injector.deactivate ();
        Trace.uninstall ())
      (fun () ->
        let metrics = Metrics.create () in
        let seed = seed_for ~seed index in
        let result = slice ~first ~count ~seed ~metrics in
        let faults_fired =
          match session with Some s -> List.length (Injector.fired_of s) | None -> 0
        in
        { index; first; count; seed; result; metrics; recorder; faults_fired })
  in
  let t0 = Unix.gettimeofday () in
  (* [Dpool.run] returns results in submission order regardless of
     which worker ran what, so every fold below is in shard order. *)
  let shards = Dpool.run ~domains (List.mapi task (plan ~n ~shards)) in
  let wall_s = Unix.gettimeofday () -. t0 in
  {
    domains;
    wall_s;
    shards;
    merged = merge (List.map (fun s -> s.result) shards);
    merged_metrics =
      List.fold_left (fun acc s -> Metrics.merge acc s.metrics) (Metrics.create ()) shards;
    merged_recorder =
      (match List.filter_map (fun s -> s.recorder) shards with
      | [] -> None
      | recorders ->
          Some
            (List.fold_left Trace.Recorder.merge (Trace.Recorder.create ~capacity:1 ()) recorders));
    faults_fired = List.fold_left (fun a (s : _ shard) -> a + s.faults_fired) 0 shards;
  }
