(** [serve_sharded]: an open loop in simulated time.  Each step is one
    [Server.run_sharded] over the same seeded arrival schedule, at
    [D = min 2 cores] domains with one shard (and one boot) per tenant
    and the batched backend; one op is one served request.  Many small
    lock/unlock walks with a fault per request use the core layer
    differently from [fleet_churn]'s bulk walks, and every step pays
    the shard driver, the domain pool and the per-shard boots. *)

open Sentry_serve
module H = Harness
module W = Workload

type size = {
  tenants : int;
  duration_s : float;  (** simulated span of the arrival schedule *)
  warmup_s : float;  (** simulated span of the set-up's warm-up run *)
  setups : int;
  probes : int;  (** host-speed probes before each step and pass *)
}

(* 1280 Hz base with a 3x peak quarter over 4 simulated seconds:
   about 7k requests a step. *)
let full = { tenants = 16; duration_s = 4.0; warmup_s = 0.25; setups = 7; probes = 8 }
let tiny = { tenants = 4; duration_s = 0.1; warmup_s = 0.02; setups = 2; probes = 1 }

(* The [slo.spec] unlock-to-first-touch p99 limit. *)
let slo_first_touch_ns = 10e6

let config size ~seed =
  {
    Server.default with
    Server.tenants = size.tenants;
    rate_hz = 1280.0;
    burst = 3.0;
    duration_s = size.duration_s;
    batch_max = 8;
    seed;
    backend = Sentry_core.Sentry.Batched;
  }

let arrivals (cfg : Server.config) =
  Arrivals.generate
    {
      Arrivals.rate_hz = cfg.Server.rate_hz;
      burst = cfg.Server.burst;
      duration_s = cfg.Server.duration_s;
      tenants = cfg.Server.tenants;
      seed = cfg.Server.seed;
    }

let domains () = min 2 (H.cores ())

(** The step's checks: conservation, a clean audit, and the offered
    count matching the benchmark's own schedule. *)
let check (s : Server.stats) ~offered =
  s.Server.requests = s.Server.served + s.Server.shed + s.Server.rejected
  && s.Server.audit_findings = 0 && s.Server.requests = offered

let platform = `Tegra3

let serve tr ~span ~domains cfg =
  H.span tr span (fun () -> Server.run_sharded ~platform ~domains cfg)

(** A step builds one System per shard inside [run_sharded], out of
    the benchmark's reach.  Set-up builds one the same way (boot with
    the journal on, install, one tenant of the pool) from outside, so
    the per-shard cost is measured layer by layer. *)
let reference_shard tr (cfg : Server.config) =
  let open Sentry_core in
  let system =
    H.span tr "soc.boot" (fun () -> System.boot ~seed:cfg.Server.seed ~pid_base:1 platform)
  in
  let sentry =
    H.span tr "core.install" (fun () ->
        Sentry.install system { (Config.default platform) with Config.journal = true })
  in
  ignore
    (Fleet_churn.spawn_tenant tr system sentry ~pages_per_proc:cfg.Server.pages_per_proc
       ~seed:cfg.Server.seed 0)

(** Set-up generates the step schedule, builds a reference shard, then
    warms the shard driver with one short run over the same tenants:
    the heap the steps reuse is grown before timing. *)
let setup tr size ~seed ~domains =
  let cfg = config size ~seed in
  let schedule = H.span tr "serve.arrivals" (fun () -> arrivals cfg) in
  reference_shard tr cfg;
  let warm = config { size with duration_s = size.warmup_s } ~seed in
  let s = (serve tr ~span:"serve.warmup" ~domains warm).Server.merged in
  if not (check s ~offered:s.Server.requests) then
    failwith "serve_sharded: the warm-up run fails its checks";
  schedule

let run tr size ~seed ~seconds =
  let cfg = config size ~seed in
  let domains = domains () in
  let first = ref None and attempted = ref 0 and failed = ref 0 in
  let schedule, measured =
    W.drive tr ~setups:size.setups ~probes:size.probes ~domains ~seconds ~window:1 ~granule:1
      ~setup:(fun () -> setup tr size ~seed ~domains)
      (fun schedule i ->
        let offered = List.length schedule in
        H.begin_op tr i;
        let sh =
          H.segment ~alloc:H.pool_alloc_words tr (fun () ->
              serve tr ~span:"serve.run" ~domains cfg)
        in
        let host_s, alloc_words = H.end_op tr in
        (* A step boots all its shards afresh: collect the last step's,
           outside the measurement, so every step starts from the same
           heap and the peak footprint does not depend on where the
           collector happened to stand. *)
        Gc.full_major ();
        let s = sh.Server.merged in
        (* Every step serves the same schedule, so every step must
           reproduce the first one's simulated outcome exactly. *)
        let json = Sentry_obs.Json_out.to_string (Server.json s) in
        let same =
          match !first with
          | None ->
              first := Some (s, json);
              true
          | Some (_, j) -> j = json
        in
        attempted := !attempted + s.Server.requests;
        if not (check s ~offered && same) then failed := !failed + s.Server.requests;
        { W.host_s; ops = s.Server.served; alloc_words })
  in
  let s = fst (Option.get !first) in
  let samples xs = List.map snd xs in
  let first_touch = samples s.Server.latency_samples in
  let late = List.length (List.filter (fun ns -> ns > slo_first_touch_ns) first_touch) in
  let ms ns = ns /. 1e6 in
  let count name v = W.metric name "count" (float_of_int v) in
  {
    W.measured;
    attempted = !attempted;
    failed = !failed;
    domains;
    window = 1;
    granule = 1;
    sim =
      [
        W.metric "sim_first_touch_ms.p50" "ms" (ms (H.percentile 50.0 first_touch));
        W.metric "sim_first_touch_ms.p99" "ms" (ms (H.percentile 99.0 first_touch));
        W.metric "sim_queue_wait_ms.p99" "ms"
          (ms (H.percentile 99.0 (samples s.Server.queue_wait_samples)));
        W.metric "sim_slo_miss_frac" "ratio"
          (float_of_int (s.Server.shed + s.Server.rejected + late)
          /. float_of_int s.Server.requests);
        W.metric "sim_energy_mj_per_op" "mJ"
          (s.Server.energy_j *. 1e3 /. float_of_int s.Server.served);
      ];
    counts =
      [
        count "serve.requests" s.Server.requests;
        count "serve.served" s.Server.served;
        count "serve.shed" s.Server.shed;
        count "serve.rejected" s.Server.rejected;
        count "serve.batches" s.Server.batches;
        W.metric "serve.admit_ratio" "ratio"
          (float_of_int s.Server.served /. float_of_int s.Server.requests);
        count "serve.pages_locked" s.Server.pages_locked;
        count "serve.pages_faulted" s.Server.pages_faulted;
      ];
    schedule =
      Digest.to_hex
        (Digest.string
           (String.concat ";"
              (List.map
                 (fun (r : Arrivals.request) ->
                   Printf.sprintf "%d@%.0f:%d" r.Arrivals.id r.Arrivals.at_ns r.Arrivals.tenant)
                 schedule)));
  }
