(** The benchmark entry point.

    {v
    main.exe --workload fleet_churn|crash_recover|serve_sharded
             --seed N --seconds S --trace 0|1
    v}

    Prints a full report line, then as the last line the result object
    whose metrics are [BENCHMARK.json]'s end-to-end ones (untraced) or
    per-layer ones (traced).  A traced run also writes its spans, one
    JSON object a line, to [perfbench/_out/spans-WORKLOAD-SEED.jsonl]
    (paths are relative to the repository root, where it runs). *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = "perfbench/_out" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 keep per-layer spans");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let tr = Harness.create ~traced in
  match
    Suite.run tr ~workload:!workload ~tiny:false ~seed:!seed ~seconds:!seconds
  with
  | exception (Failure msg | Invalid_argument msg) ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2
  | o ->
      let e2e = Report.end_to_end o in
      let layers =
        if traced then begin
          let spans = Harness.spans tr in
          if not (Sys.file_exists out) then Sys.mkdir out 0o755;
          Harness.write_spans
            (Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed))
            spans;
          Some (Report.per_layer o spans)
        end
        else None
      in
      print_endline
        (Sentry_obs.Json_out.to_string
           (Report.full ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced o ~e2e ~layers));
      let metrics, names =
        match layers with
        | Some l -> (l, Report.per_layer_names)
        | None -> (e2e, Report.end_to_end_names)
      in
      print_endline (Sentry_obs.Json_out.to_string (Report.result o metrics ~names))
