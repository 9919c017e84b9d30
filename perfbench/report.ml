(** Turn a workload's outcome (and, traced, its spans) into named
    metrics with units, and print the two output lines: a full report,
    then the one-line result whose metrics are the ones
    [BENCHMARK.json] declares. *)

module H = Harness
module W = Workload
module J = Sentry_obs.Json_out

(** The metrics [BENCHMARK.json] declares, in its order. *)
let end_to_end_names = [ "setup_s"; "op_ms.p50"; "peak_rss_mb"; "alloc_mwords_per_op" ]

(* Only layer metrics every workload measures: a workload that never
   calls a layer has no number to give for it. *)
let per_layer_names =
  [
    "soc.boot.ms"; "soc.boot.alloc_mwords"; "core.install.ms"; "kernel.populate.ms"; "bench.glue.ms";
  ]

let sumf f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let steps (o : W.outcome) = o.W.measured.W.steps
let ops (o : W.outcome) = List.fold_left (fun a (s : W.step) -> a + s.W.ops) 0 (steps o)

(** What host seconds are multiplied by to read at the probe's nominal
    speed: the nominal probe time over the run's mean probe.  The mean,
    not the fastest: time the host gives to others lengthens the ops by
    its share of the run, and the probes, taken all through the run, by
    the same share. *)
let speed (o : W.outcome) =
  let ps = o.W.measured.W.probes in
  H.nominal_probe_s *. float_of_int (List.length ps) /. sumf Fun.id ps

(* Per op, in ms, over each group of [granule] steps (a power-loss and
   a warm-reset round belong together): the group's time over its ops.
   [secs] gives each step's seconds. *)
let group_op_ms (o : W.outcome) secs =
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
        let g = List.filteri (fun i _ -> i < o.W.granule) xs in
        let rest = List.filteri (fun i _ -> i >= o.W.granule) xs in
        let n = List.fold_left (fun a ((s : W.step), _) -> a + s.W.ops) 0 g in
        go ((sumf snd g *. 1e3 /. float_of_int n) :: acc) rest
  in
  go [] (List.combine (steps o) secs)

(** Every end-to-end metric that applies: host ones from the steps and
    set-up passes, each at the probe's nominal speed, then the
    workload's [sim_*] ones. *)
let end_to_end (o : W.outcome) =
  let m = W.metric and ms = o.W.measured and k = speed o in
  let n = ops o in
  let secs = List.map (fun (s : W.step) -> s.W.host_s *. k) ms.W.steps in
  let per_step_op_ms =
    List.map2 (fun (s : W.step) t -> t *. 1e3 /. float_of_int s.W.ops) ms.W.steps secs
  in
  [
    m "setup_s" "s" (H.median ms.W.setups *. k);
    m "op_ms.p50" "ms" (H.median (group_op_ms o secs));
    m "ops_per_s" "1/s" (float_of_int n /. sumf Fun.id secs);
  ]
  @ (if H.tail_ok ~p:90.0 (List.length per_step_op_ms) then
       [ m "op_ms.p90" "ms" (H.percentile 90.0 per_step_op_ms) ]
     else [])
  @ [
      m "peak_rss_mb" "MiB" ms.W.peak_rss_mb;
      m "alloc_mwords_per_op" "Mword"
        (H.median
           (List.map
              (fun (s : W.step) -> s.W.alloc_words /. 1e6 /. float_of_int s.W.ops)
              ms.W.steps));
      m "error_frac" "ratio" (float_of_int o.W.failed /. float_of_int o.W.attempted);
    ]
  @ o.W.sim

(* How each layer call is summarised: median self time per call in a
   given unit, per unit of work the call reported, or allocation. *)
type stat =
  | Per_call of string * float  (** suffix, seconds → unit *)
  | Per_unit of string * float  (** suffix, seconds per unit → unit *)
  | Alloc_per_call of string * float  (** suffix, words → unit *)
  | Alloc_per_unit of string

let specs =
  [
    ("soc.boot", [ Per_call ("ms", 1e3); Alloc_per_call ("alloc_mwords", 1e-6) ]);
    ("soc.reboot_hard", [ Per_call ("ms", 1e3) ]);
    ("soc.reboot_warm", [ Per_call ("ms", 1e3) ]);
    ("attacks.image", [ Per_call ("ms", 1e3) ]);
    ("attacks.scan", [ Per_call ("ms", 1e3) ]);
    ("soc.flush", [ Per_call ("ms", 1e3) ]);
    ("core.install", [ Per_call ("ms", 1e3) ]);
    ("kernel.populate", [ Per_call ("ms", 1e3) ]);
    ("kernel.dm_setup", [ Per_call ("ms", 1e3) ]);
    ( "core.lock",
      [
        Per_call ("ms", 1e3); Per_unit ("us_per_page", 1e6); Alloc_per_unit "alloc_words_per_page";
      ] );
    ("kernel.fault", [ Per_call ("us", 1e6) ]);
    ("core.unlock", [ Per_call ("ms", 1e3) ]);
    ("kernel.dm_crypt", [ Per_unit ("us_per_sector", 1e6) ]);
    ("core.recover", [ Per_call ("ms", 1e3) ]);
    ("analysis.audit", [ Per_call ("ms", 1e3) ]);
    ("serve.arrivals", [ Per_call ("ms", 1e3) ]);
    ("serve.warmup", [ Per_call ("ms", 1e3) ]);
    ("serve.run", [ Per_call ("s", 1.0) ]);
  ]

let unit_of_suffix = function
  | "ms" -> "ms"
  | "us" | "us_per_page" | "us_per_sector" -> "us"
  | "s" -> "s"
  | "alloc_mwords" -> "Mword"
  | "alloc_words_per_page" -> "word"
  | s -> s

(** Per-layer metrics from a traced run: per-call medians for every
    layer call that ran, each layer's self time per op, the benchmark's
    own glue, and the traced throughput.  Self times per op plus
    [bench.glue.ms] add up to [bench.traced_op_ms]. *)
let per_layer (o : W.outcome) spans =
  let speed = speed o in
  let selfs = List.map (fun (s, self) -> (s, self *. speed)) (H.self_times spans) in
  let calls name = List.filter (fun ((s : H.span), _) -> s.H.name = name) selfs in
  let summarise (name, stats) =
    match calls name with
    | [] -> []
    | cs ->
        let worked = List.filter (fun ((s : H.span), _) -> s.H.units > 0) cs in
        let per_unit v (s : H.span) = v /. float_of_int s.H.units in
        List.filter_map
          (fun stat ->
            let m suffix v = Some (W.metric (name ^ "." ^ suffix) (unit_of_suffix suffix) v) in
            match stat with
            | Per_call (suffix, k) -> m suffix (k *. H.median (List.map snd cs))
            | Alloc_per_call (suffix, k) ->
                m suffix (k *. H.median (List.map (fun ((s : H.span), _) -> s.H.alloc) cs))
            | Per_unit (_, _) | Alloc_per_unit _ when worked = [] -> None
            | Per_unit (suffix, k) ->
                m suffix (k *. H.median (List.map (fun (s, self) -> per_unit self s) worked))
            | Alloc_per_unit suffix ->
                m suffix (H.median (List.map (fun ((s : H.span), _) -> per_unit s.H.alloc s) worked)))
          stats
  in
  let n = float_of_int (ops o) in
  let in_ops = List.filter (fun ((s : H.span), _) -> s.H.op > 0) selfs in
  let layers =
    List.sort_uniq String.compare
      (List.filter_map
         (fun ((s : H.span), _) -> if s.H.name = H.op_span then None else Some s.H.name)
         in_ops)
  in
  let self_per_op name =
    W.metric (name ^ ".self_ms_per_op") "ms"
      (sumf snd (List.filter (fun ((s : H.span), _) -> s.H.name = name) in_ops) *. 1e3 /. n)
  in
  let roots = List.filter (fun ((s : H.span), _) -> s.H.name = H.op_span) in_ops in
  let traced_s = sumf (fun (s, _) -> H.dur s *. speed) roots in
  List.concat_map summarise specs
  @ List.map self_per_op layers
  @ [
      W.metric "bench.glue.ms" "ms" (sumf snd roots *. 1e3 /. n);
      W.metric "bench.traced_op_ms" "ms" (traced_s *. 1e3 /. n);
      W.metric "bench.traced_ops_per_s" "1/s" (n /. traced_s);
    ]

let obj_of metrics =
  J.Obj
    (List.map
       (fun (m : W.metric) ->
         (m.W.name, J.Obj [ ("value", J.Float m.W.value); ("unit", J.Str m.W.unit) ]))
       metrics)

let host_block (o : W.outcome) ~seed ~seconds =
  let measured = sumf (fun (s : W.step) -> s.W.host_s) (steps o) in
  J.Obj
    [
      ("cores", J.Int (H.cores ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("seed", J.Int seed);
      ("domains", J.Int o.W.domains);
      ("run_seconds", J.Float seconds);
      ("measured_s", J.Float measured);
      ("probe_ms_mean", J.Float (H.nominal_probe_s /. speed o *. 1e3));
      ("nominal_probe_ms", J.Float (H.nominal_probe_s *. 1e3));
      ("steps", J.Int (List.length (steps o)));
      ("ops", J.Int (ops o));
      ("window_steps", J.Int o.W.window);
    ]

(** The full report: every metric that applies, by name with its
    unit.  [layers] is [Some] for a traced run. *)
let full ~workload ~seed ~seconds ~traced (o : W.outcome) ~e2e ~layers =
  J.Obj
    ([
       ("workload", J.Str workload);
       ("traced", J.Bool traced);
       ("host", host_block o ~seed ~seconds);
       ("attempted", J.Int o.W.attempted);
       ("failed", J.Int o.W.failed);
       ("end_to_end", obj_of e2e);
     ]
    @ (match layers with Some l -> [ ("per_layer", obj_of l) ] | None -> [])
    @ [ ("counts", obj_of o.W.counts); ("schedule", J.Str o.W.schedule) ])

(** The last line: the declared metrics only. *)
let result (o : W.outcome) metrics ~names =
  let pick name = List.find (fun (m : W.metric) -> m.W.name = name) metrics in
  J.Obj
    [
      ("correct", J.Bool (o.W.failed = 0));
      ("attempted", J.Int o.W.attempted);
      ("failed", J.Int o.W.failed);
      ("metrics", obj_of (List.map pick names));
    ]
