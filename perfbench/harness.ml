(** Host-side measurement for the benchmark: wall-clock spans around
    calls into the simulator's layers, allocation counters, and the
    small statistics the report needs.

    Nothing here reaches inside the program.  Every span brackets one
    public call from the outside, so a layer's host cost is measured
    without instrumenting the layer.  Untraced, [span] is a direct
    call and only whole ops are timed; traced, every span is kept in
    memory and written out when the run ends. *)

let now = Unix.gettimeofday

(** Words the calling domain has allocated so far (minor + major −
    promoted, so each word counts once).  Exact, and cheap enough for
    every span. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(** The same count over every domain, joined ones included: what a
    call that fans out over a domain pool allocates.  [Gc.quick_stat]
    folds joined domains in exactly, but the calling domain's major
    words can lag by a few tens of thousands of words, so use it only
    where the pool's share dwarfs that. *)
let pool_alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type span = {
  id : int;
  name : string;  (** [layer.call], e.g. [core.lock] *)
  parent : int;  (** enclosing span, 0 for a root *)
  op : int;  (** op id (1-based); 0 for set-up *)
  start : float;
  stop : float;
  alloc : float;  (** words the span allocated *)
  units : int;  (** work the call reported (pages, sectors); 0 if none *)
}

let dur s = s.stop -. s.start

type t = {
  traced : bool;
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next_id : int;
  mutable op : int;
  mutable op_s : float;  (** host seconds inside the current op's segments *)
  mutable op_alloc : float;  (** words allocated inside them *)
}

let create ~traced =
  { traced; spans = []; stack = []; next_id = 1; op = 0; op_s = 0.0; op_alloc = 0.0 }

(* The root span every timed segment of an op hangs under; its self
   time is the benchmark's own glue. *)
let op_span = "bench.op"
let setup_span = "bench.setup"

(** [span ?units t name f] — call [f], recording a span when traced.
    [units] reads the work done off [f]'s result.  A raising call still
    closes its span (a crash mid-walk is a measured call too). *)
let span ?(units = fun _ -> 0) t name f =
  if not t.traced then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let a0 = alloc_words () in
    let start = now () in
    let close u =
      let stop = now () in
      let alloc = alloc_words () -. a0 in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; parent; op = t.op; start; stop; alloc; units = u } :: t.spans
    in
    match f () with
    | r ->
        close (units r);
        r
    | exception e ->
        close 0;
        raise e
  end

(** Time one set-up pass; returns its result and host seconds. *)
let setup t f =
  t.op <- 0;
  let t0 = now () in
  let r = span t setup_span f in
  (r, now () -. t0)

(** Ops are timed in segments so that output checks between segments
    stay outside the measurement: [begin_op], then any number of
    [segment]s, then [end_op] for the op's host seconds and allocated
    words. *)
let begin_op t id =
  t.op <- id;
  t.op_s <- 0.0;
  t.op_alloc <- 0.0

let segment ?(alloc = alloc_words) t f =
  let a0 = alloc () in
  let t0 = now () in
  let r = span t op_span f in
  t.op_s <- t.op_s +. (now () -. t0);
  t.op_alloc <- t.op_alloc +. (alloc () -. a0);
  r

let end_op t =
  t.op <- 0;
  (t.op_s, t.op_alloc)

(** Every span kept, in start order. *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

(** Self time of every span: its duration minus the part of it its
    direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id))) spans

(** One span per line, as JSON. *)
let write_spans path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start\":%.9f,\"end\":%.9f,\
             \"alloc_words\":%.0f,\"units\":%d}\n"
            s.id s.name s.parent s.op s.start s.stop s.alloc s.units)
        spans)

(* ------------------------------ statistics ------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** Median with the two middle samples averaged; [nan] when empty. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile, [p] in [0, 100]; [nan] when empty. *)
let percentile p = function
  | [] -> Float.nan
  | xs -> Sentry_util.Stats.percentile p (Array.of_list xs)

(** Does a sample of [n] leave at least ten samples beyond the [p]th
    percentile? *)
let tail_ok ~p n = float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0

(* ------------------------------ host speed ------------------------ *)

(* The host this runs on is shared: its speed swings by up to 1.7x in
   bursts of a few seconds and drifts over minutes, with whatever else
   runs beside it, and not every kind of code slows alike.  A fixed
   reference computation timed next to the workload reads that speed,
   so a host time can be stated against it.  The probe stands apart
   from the program (nothing it calls is the simulator's, so a change
   to the program does not move it) and allocates nothing once its
   buffers exist.  It is built from the shapes of loop the simulator
   spends its host time in, in about equal shares: table lookups
   chained through integer arithmetic (the AES rounds), a byte-compare
   scan (the cold-boot image scan), a 64-bit PRNG draw per byte (DRAM
   decay on a power cycle) and byte streams through memory (page
   copies, DRAM images). *)

let probe_table = Array.init 256 (fun i -> (i * 0x9e3779b1) land 0xffffff)

(* The streamed buffer is larger than a core's L2, like the
   simulator's DRAM arrays and images, so the probe shares their
   exposure to whatever else fills the last-level cache.  It is only
   read, so every domain streams the same one. *)
let probe_src_bytes = 8 * 1024 * 1024
let probe_blit_bytes = 512 * 1024
let probe_scan_bytes = 16 * 1024
let probe_decay_bytes = 64 * 1024

let probe_src =
  Bytes.init probe_src_bytes (fun i -> Char.unsafe_chr ((i * 131) lxor (i lsr 9) land 0xff))

type probe_buffers = { dst : Bytes.t; needle : Bytes.t; mutable sink : int }

let probe_buffers () =
  {
    dst = Bytes.create probe_blit_bytes;
    needle = Bytes.init 34 (fun i -> Char.unsafe_chr (i * 7 land 0xff));
    sink = 0;
  }

(* Table lookups chained through integer arithmetic. *)
let probe_chain b =
  let x = ref b.sink in
  for i = 1 to 180_000 do
    x := Array.unsafe_get probe_table (!x land 255) lxor ((!x lsr 3) + i)
  done;
  !x

(* At every offset, count the bytes that agree with a needle. *)
let probe_scan b =
  let nn = Bytes.length b.needle and best = ref 0 in
  for i = 0 to probe_scan_bytes - 1 do
    let m = ref 0 in
    for j = 0 to nn - 1 do
      if Bytes.unsafe_get probe_src (i + j) = Bytes.unsafe_get b.needle j then incr m
    done;
    if !m > !best then best := !m
  done;
  !best

(* A SplitMix64 draw per byte, clearing the bytes it rejects. *)
let probe_decay b =
  let state = ref (Int64.of_int b.sink) in
  for i = 0 to probe_decay_bytes - 1 do
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    if Int64.to_float (Int64.shift_right_logical z 11) < 0.4 *. 9007199254740992.0 then
      Bytes.unsafe_set b.dst i '\000'
  done;
  Int64.to_int !state

(* A read of every cache line of the streamed buffer, its copy in
   blocks, and a chain of dependent reads at scattered offsets. *)
let probe_stream b =
  let s = ref 0 and i = ref 0 in
  while !i < probe_src_bytes do
    s := !s + Char.code (Bytes.unsafe_get probe_src !i);
    i := !i + 64
  done;
  for k = 0 to (probe_src_bytes / probe_blit_bytes / 2) - 1 do
    Bytes.blit probe_src (2 * k * probe_blit_bytes) b.dst 0 probe_blit_bytes
  done;
  let x = ref !s in
  for _ = 1 to 6_000 do
    x := (!x * 40503) + Char.code (Bytes.unsafe_get probe_src (!x land (probe_src_bytes - 1)))
  done;
  !x

let probe_kernel b =
  let a = probe_chain b in
  let c = probe_scan b in
  let d = probe_decay b in
  b.sink <- (a + c + d + probe_stream b) land 0xffff

(* One set of buffers per domain the probe may run on. *)
let probe_sets = Array.init 2 (fun _ -> probe_buffers ())

(** Host seconds for one run of the reference computation on each of
    [domains] (1 or 2) domains at once: a workload that runs on two
    domains is read against the speed of two. *)
let probe ~domains =
  let t0 = now () in
  (if domains <= 1 then probe_kernel probe_sets.(0)
   else
     let other = Domain.spawn (fun () -> probe_kernel probe_sets.(1)) in
     probe_kernel probe_sets.(0);
     Domain.join other);
  now () -. t0

(** What one probe takes on the reference host, by definition.  Host
    times are stated at that speed by scaling them with
    [nominal_probe_s /. probe]. *)
let nominal_probe_s = 3e-3

(* ------------------------------ host facts ------------------------- *)

(** Peak resident set size (VmHWM) in MiB; [nan] where /proc is absent. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> Float.nan
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                    float_of_int kb /. 1024.0)
            | _ -> go ()
          in
          go ())

let cores () = Domain.recommended_domain_count ()
