(** The workloads by name. *)

let names = [ "fleet_churn"; "crash_recover"; "serve_sharded" ]

(** [run tr ~workload ~tiny ~seed ~seconds] — one run of a workload,
    at full size or at the [tiny] size the smoke tests use.
    @raise Invalid_argument on an unknown workload. *)
let run tr ~workload ~tiny ~seed ~seconds =
  match workload with
  | "fleet_churn" ->
      Fleet_churn.run tr (if tiny then Fleet_churn.tiny else Fleet_churn.full) ~seed ~seconds
  | "crash_recover" ->
      Crash_recover.run tr (if tiny then Crash_recover.tiny else Crash_recover.full) ~seed ~seconds
  | "serve_sharded" ->
      Serve_sharded.run tr (if tiny then Serve_sharded.tiny else Serve_sharded.full) ~seed ~seconds
  | w ->
      invalid_arg (Printf.sprintf "unknown workload %S (one of: %s)" w (String.concat ", " names))
