(** What a workload hands back for the report, and the loop that paces
    its ops against the run length. *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type step = {
  host_s : float;  (** host seconds inside the step's timed segments *)
  ops : int;  (** ops the step completed (requests served, for serve) *)
  alloc_words : float;  (** words allocated inside the timed segments *)
}

(** What [drive] measured, beside the workload's own results. *)
type measured = {
  setups : float list;  (** host seconds of each set-up pass *)
  steps : step list;  (** in run order *)
  probes : float list;  (** seconds of every [Harness.probe] taken between them *)
  peak_rss_mb : float;  (** peak resident memory over set-up and the window *)
}

type outcome = {
  measured : measured;
  attempted : int;
  failed : int;
  domains : int;  (** OCaml domains the workload ran on *)
  window : int;  (** steps in the deterministic prefix *)
  granule : int;  (** steps that belong together (a power-loss and a warm-reset round) *)
  sim : metric list;  (** [sim_*] over the window *)
  counts : metric list;  (** per-layer counts over the window *)
  schedule : string;  (** digest of the seeded inputs the window drove *)
}

(** [drive tr ~setups ~probes ~domains ~seconds ~window ~granule ~setup
    step] sets up once, then runs [step x i] for [i = 1, 2, …] on the
    set-up result [x]: always the first [window] steps (the
    deterministic prefix every [sim_*] metric and count is taken from),
    then more in groups of [granule] while another group still fits in
    [seconds] of wall time counted from the first step.

    Before every step and every set-up pass, [probes] runs of
    [Harness.probe ~domains] sample the host's speed, so the probes
    see the same stretch of time, with the same share of slow moments,
    as the workload.

    The peak footprint is read after the window, so it covers the same
    work on any host, and before any other set-up pass.  The other
    [setups - 1] passes are spread evenly over the rest of the run,
    between groups, and thrown away: the host's speed drifts over
    seconds, and passes taken back to back would all see the same
    moment of it.  Every pass is followed, outside any measurement, by
    a full major collection so the next steps do not pay for its
    garbage.  The wall time of checks, probes and extra passes counts
    against the run length, not against any step.

    Returns [x] and what was measured. *)
let drive tr ~setups ~probes ~domains ~seconds ~window ~granule ~setup step =
  if window <= 0 || granule <= 0 || window mod granule <> 0 then
    invalid_arg "Workload.drive: window must be a positive multiple of granule";
  let probed = ref [] in
  let probe () =
    for _ = 1 to probes do
      probed := Harness.probe ~domains :: !probed
    done
  in
  let timed_setup () =
    probe ();
    let x, t = Harness.setup tr setup in
    Gc.full_major ();
    (x, t)
  in
  let x, first = timed_setup () in
  let t0 = Harness.now () and peak = ref Float.nan in
  let elapsed () = Harness.now () -. t0 in
  let rec go i walls passes acc =
    let boundary = i > window && (i - 1) mod granule = 0 in
    let due = int_of_float (ceil (float_of_int (setups - 1) *. elapsed () /. seconds)) in
    let passes =
      if boundary && List.length passes - 1 < min (setups - 1) due then
        snd (timed_setup ()) :: passes
      else passes
    in
    let group = float_of_int granule *. Harness.median walls in
    if boundary && elapsed () +. group > seconds then (List.rev passes, List.rev acc)
    else begin
      let w0 = Harness.now () in
      probe ();
      let s : step = step x i in
      if i = window then peak := Harness.peak_rss_mb ();
      go (i + 1) ((Harness.now () -. w0) :: walls) passes (s :: acc)
    end
  in
  let setups, steps = go 1 [] [ first ] [] in
  (x, { setups; steps; probes = List.rev !probed; peak_rss_mb = !peak })

(** The seed of step [i] (or tenant, or set-up pass) under run seed
    [seed]: a spread that keeps the PRNG streams apart. *)
let derive ~seed i = (seed * 1_000_003) + (i * 7919)

(** Fill [out] with what the CPU would read at physical [addr], without
    charging anything: resident L2 lines first, DRAM behind them.
    Touches no clock, statistics or replacement state, so output checks
    built on it cannot perturb the run they check. *)
let cpu_view machine ~addr out =
  let open Sentry_soc in
  let dram = Machine.dram machine and l2 = Machine.l2 machine in
  let base = (Machine.dram_region machine).Memmap.base in
  let raw = Dram.raw dram in
  let line = Pl310.line_size l2 in
  let len = Bytes.length out in
  let a = ref addr in
  while !a < addr + len do
    let line_addr = !a land lnot (line - 1) in
    let lo = !a - line_addr in
    let n = min (line - lo) (addr + len - !a) in
    (match Pl310.peek_line l2 line_addr with
    | Some data -> Bytes.blit data lo out (!a - addr) n
    | None -> Bytes.blit raw (!a - base) out (!a - addr) n);
    a := !a + n
  done
