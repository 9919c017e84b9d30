(* Smoke runs of every workload at the tiny size: every metric appears
   with its unit, no op fails a check, the traced per-layer self times
   add up to the traced op time, and the seeded outputs repeat. *)

open Perfbench
module W = Workload
module J = Sentry_obs.Json_in

let checkb = Alcotest.(check bool)

(* [seconds = 0]: only the deterministic window runs. *)
let run ?(traced = false) ~seed workload =
  let tr = Harness.create ~traced in
  let o = Suite.run tr ~workload ~tiny:true ~seed ~seconds:0.0 in
  (o, tr)

(* The end-to-end metrics each workload must report beyond the common
   ones, by name. *)
let specific = function
  | "fleet_churn" ->
      [
        "sim_first_touch_ms.p50"; "sim_first_touch_ms.p99"; "sim_lock_ms.p50"; "sim_energy_mj_per_op";
      ]
  | "serve_sharded" ->
      [
        "sim_first_touch_ms.p50";
        "sim_first_touch_ms.p99";
        "sim_queue_wait_ms.p99";
        "sim_slo_miss_frac";
        "sim_energy_mj_per_op";
      ]
  | _ -> []

let has metrics name =
  List.exists
    (fun (m : W.metric) -> m.W.name = name && m.W.unit <> "" && not (Float.is_nan m.W.value))
    metrics

let test_metrics workload () =
  let o, _ = run ~seed:3 workload in
  let e2e = Report.end_to_end o in
  List.iter
    (fun name -> checkb (name ^ " reported with its unit") true (has e2e name))
    (Report.end_to_end_names @ [ "error_frac" ] @ specific workload);
  checkb "attempted ops" true (o.W.attempted > 0);
  checkb "error_frac = 0" true (o.W.failed = 0);
  if workload = "crash_recover" then
    checkb "every round crashed" true
      (List.exists
         (fun (m : W.metric) -> m.W.name = "faults.fired" && m.W.value = float_of_int o.W.window)
         o.W.counts)

let test_traced workload () =
  let o, tr = run ~traced:true ~seed:3 workload in
  let layers = Report.per_layer o (Harness.spans tr) in
  List.iter (fun name -> checkb (name ^ " reported") true (has layers name)) Report.per_layer_names;
  let value name = (List.find (fun (m : W.metric) -> m.W.name = name) layers).W.value in
  let selfs =
    List.fold_left
      (fun a (m : W.metric) ->
        if Filename.check_suffix m.W.name ".self_ms_per_op" then a +. m.W.value else a)
      0.0 layers
  in
  let total = value "bench.traced_op_ms" in
  checkb "layer self times + glue = traced op time" true
    (Float.abs (selfs +. value "bench.glue.ms" -. total) <= 1e-9 *. total)

(* Same seed: identical sim_* metrics, per-layer counts and seeded
   inputs.  Another seed: other inputs (crash points, arrival
   schedule, touched pages). *)
let test_determinism workload () =
  let a, _ = run ~seed:5 workload and b, _ = run ~seed:5 workload and c, _ = run ~seed:6 workload in
  checkb "sim_* metrics repeat" true (a.W.sim = b.W.sim);
  checkb "per-layer counts repeat" true (a.W.counts = b.W.counts);
  checkb "seeded inputs repeat" true (a.W.schedule = b.W.schedule);
  checkb "another seed, other inputs" true (a.W.schedule <> c.W.schedule)

(* BENCHMARK.json declares exactly the metrics the result line prints. *)
let test_declared () =
  let doc = J.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let names key =
    Option.get (J.to_list (Option.get (J.member key doc)))
    |> List.map (fun m -> Option.get (J.to_string (Option.get (J.member "name" m))))
  in
  checkb "end_to_end" true (names "end_to_end" = Report.end_to_end_names);
  checkb "per_layer" true (names "per_layer" = Report.per_layer_names);
  checkb "workloads" true (names "workloads" = Suite.names)

let () =
  let per workload =
    ( workload,
      [
        Alcotest.test_case "metrics and checks" `Quick (test_metrics workload);
        Alcotest.test_case "traced self times add up" `Quick (test_traced workload);
        Alcotest.test_case "determinism" `Quick (test_determinism workload);
      ] )
  in
  Alcotest.run "perfbench"
    (List.map per Suite.names
    @ [ ("declared", [ Alcotest.test_case "BENCHMARK.json" `Quick test_declared ]) ])
