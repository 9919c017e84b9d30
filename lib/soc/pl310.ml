(** PL310-style shared L2 cache controller with lockdown-by-way.

    Geometry mirrors the Tegra 3: 1 MB, 8 ways of 128 KB, 32-byte
    lines, write-back + write-allocate.  The controller supports:

    - {b Lockdown by way} (the "data lockdown" register): a bitmask of
      ways that receive no new allocations.  Lines already resident in
      a locked way keep serving hits and absorbing writes, but are
      never evicted — so their data never reaches DRAM.  This is the
      mechanism Sentry repurposes for security (§4.2).
    - {b Clean/invalidate with a way mask}: Sentry's kernel patch
      (§4.5) routes every L2 flush through a mask that skips locked
      ways.  The stock full flush, by contrast, cleans {e all} ways —
      including locked ones — and drops the lockdown, which is exactly
      the dangerous behaviour the paper discovered and disabled.

    If an access misses and every way is either locked or disabled,
    the access bypasses the cache entirely (uncached DRAM access), as
    the PL310 does when allocation is impossible. *)

type line = {
  mutable valid : bool;
  mutable dirty : bool;
  mutable tag : int;
  data : Bytes.t;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable bypasses : int;
}

type t = {
  dram : Dram.t;
  clock : Clock.t;
  ways : int;
  way_size : int;
  line_size : int;
  sets : int;
  set_shift : int; (* log2 line_size *)
  tag_shift : int; (* set_shift + log2 sets: address bits above the set index *)
  fill_ns : float; (* per-line fill latency, precomputed so the miss
                      path passes an already-boxed float to the clock *)
  meter : Energy.meter; (* pre-resolved "l2" energy cell *)
  lines : line array array; (* way -> set *)
  mutable lockdown : int; (* bit w set: way w receives no allocations *)
  mutable flush_mask : int; (* bit w set: maintenance ops skip way w *)
  rr : int array; (* per-set round-robin victim pointer *)
  last_way : int array; (* per-set last-hit-way memo (lookup hint only) *)
  stats : stats;
  mutable shadows : Bytes.t array array option; (* way -> set -> per-byte line taint *)
  mutable on_writeback : (way:int -> addr:int -> locked:bool -> unit) option;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Trace emission; every call site is guarded by [Trace.on] so the
   disabled path costs one global test and allocates nothing. *)
let obs = "soc.l2"

let trace t ?ts ?phase ?args name =
  let ts = match ts with Some ts -> ts | None -> Clock.now t.clock in
  Sentry_obs.Trace.emit ~ts ~cat:Sentry_obs.Event.Cache ~subsystem:obs ?phase ?args name

let create ?(ways = 8) ?(way_size = 128 * Sentry_util.Units.kib) ?(line_size = 32) ~dram
    ~clock ~energy () =
  let sets = way_size / line_size in
  {
    dram;
    clock;
    ways;
    way_size;
    line_size;
    sets;
    set_shift = log2 line_size;
    tag_shift = log2 line_size + log2 sets;
    fill_ns = Calib.l2_hit_line_ns +. Calib.dram_line_ns;
    meter = Energy.meter energy ~category:"l2";
    lines =
      Array.init ways (fun _ ->
          Array.init sets (fun _ ->
              { valid = false; dirty = false; tag = 0; data = Bytes.make line_size '\000' }));
    lockdown = 0;
    flush_mask = 0;
    rr = Array.make sets 0;
    last_way = Array.make sets 0;
    stats = { hits = 0; misses = 0; writebacks = 0; bypasses = 0 };
    shadows = None;
    on_writeback = None;
  }

(* ------------------------- taint shadow -------------------------- *)

let enable_taint t =
  Dram.enable_taint t.dram;
  if t.shadows = None then
    t.shadows <-
      Some (Array.init t.ways (fun _ -> Array.init t.sets (fun _ -> Taint.create_shadow t.line_size)))

let taint_enabled t = t.shadows <> None

let line_shadow t w set =
  match t.shadows with Some s -> Some s.(w).(set) | None -> None

(** [set_writeback_hook t f] — [f] fires whenever a dirty line is
    written back to DRAM, with [locked] true when the line's way is
    currently under lockdown (the eviction the Sentry kernel patch
    must never let happen, §4.5). *)
let set_writeback_hook t f = t.on_writeback <- Some f

let clear_writeback_hook t = t.on_writeback <- None

let ways t = t.ways
let way_size t = t.way_size
let line_size t = t.line_size
let size t = t.ways * t.way_size
let stats t = t.stats

let set_of_addr t addr = (addr lsr t.set_shift) land (t.sets - 1)
let tag_of_addr t addr = addr lsr t.tag_shift
let line_base t addr = addr land lnot (t.line_size - 1)

(* ---------------- lockdown & flush-mask registers ---------------- *)

let lockdown t = t.lockdown

(** [set_lockdown t mask] programs the lockdown-by-way register.  A set
    bit means the corresponding way allocates no new lines. *)
let set_lockdown t mask =
  Clock.advance t.clock Calib.pl310_op_ns;
  let masked = mask land ((1 lsl t.ways) - 1) in
  if Sentry_obs.Trace.on () && masked <> t.lockdown then
    trace t "way-lockdown"
      ~args:[ ("old_mask", Sentry_obs.Event.Int t.lockdown); ("new_mask", Sentry_obs.Event.Int masked) ];
  t.lockdown <- masked

let flush_mask t = t.flush_mask

(** [set_flush_mask t mask] records which ways the Sentry-patched
    kernel must skip during cache maintenance. *)
let set_flush_mask t mask = t.flush_mask <- mask land ((1 lsl t.ways) - 1)

(* --------------------------- lookup ------------------------------ *)

(* The way currently holding [addr]'s line, or -1: the allocation-free
   inner lookup.  A per-set last-hit-way memo short-circuits the 8-way
   scan — a page-granule access walks the same sets line after line,
   so the memoed way hits almost always.  The memo is only a hint; the
   tag/valid check still decides, so a stale entry costs one extra
   probe, never a wrong answer, and the simulated hit charge is the
   same whichever way the line is found in. *)
let rec scan_ways t set tag w =
  if w = t.ways then -1
  else
    let l = t.lines.(w).(set) in
    if l.valid && l.tag = tag then begin
      t.last_way.(set) <- w;
      w
    end
    else scan_ways t set tag (w + 1)

let lookup_way t addr =
  let set = set_of_addr t addr and tag = tag_of_addr t addr in
  let m = t.last_way.(set) in
  let lm = t.lines.(m).(set) in
  if lm.valid && lm.tag = tag then m else scan_ways t set tag 0

(** [lookup t addr] finds the way currently holding [addr]'s line. *)
let lookup t addr =
  let w = lookup_way t addr in
  if w < 0 then None else Some w

let resident t addr = lookup_way t addr >= 0

(** Way that holds [addr], if any — exposed for tests validating the
    warming protocol. *)
let way_of t addr = lookup t addr

let charge_hit t =
  t.stats.hits <- t.stats.hits + 1;
  Clock.advance t.clock Calib.l2_hit_line_ns;
  Energy.meter_charge_bytes t.meter ~per_byte_j:Calib.onsoc_byte_j t.line_size

let write_back t w set =
  let l = t.lines.(w).(set) in
  if l.valid && l.dirty then begin
    let addr = (l.tag lsl t.tag_shift) lor (set lsl t.set_shift) in
    (* [l.data] is passed as a view, not copied: [Dram.write_from]
       blits it into the backing store immediately and the bus layer
       snapshots it for any attached monitor, so later mutation of the
       line cannot alias either one (regression-tested). *)
    (match t.shadows with
    | Some s ->
        Dram.write_from t.dram ~initiator:`L2 ~taint:s.(w).(set) addr l.data ~off:0
          ~len:t.line_size
    | None -> Dram.write_from t.dram ~initiator:`L2 addr l.data ~off:0 ~len:t.line_size);
    Clock.advance t.clock Calib.dram_line_ns;
    l.dirty <- false;
    t.stats.writebacks <- t.stats.writebacks + 1;
    let locked = t.lockdown land (1 lsl w) <> 0 in
    if Sentry_obs.Trace.on () then
      trace t "line-writeback"
        ~args:
          [
            ("way", Sentry_obs.Event.Int w);
            ("addr", Sentry_obs.Event.Int addr);
            ("locked", Sentry_obs.Event.Bool locked);
          ];
    match t.on_writeback with
    | Some f -> f ~way:w ~addr ~locked
    | None -> ()
  end

(* Victim-selection helpers are top-level (not per-call closures) so
   the miss path allocates nothing. *)
let unlocked t w = t.lockdown land (1 lsl w) = 0

let rec find_invalid t set w =
  if w = t.ways then -1
  else if unlocked t w && not t.lines.(w).(set).valid then w
  else find_invalid t set (w + 1)

let rec count_unlocked t w acc =
  if w = t.ways then acc else count_unlocked t (w + 1) (if unlocked t w then acc + 1 else acc)

let rec next_unlocked t w = if unlocked t (w mod t.ways) then w mod t.ways else next_unlocked t (w + 1)

(* Pick a victim way for allocation in [set], honouring lockdown, or
   -1 when every way is locked.  Invalid lines in unlocked ways are
   preferred; otherwise round-robin over unlocked ways. *)
let victim_way t set =
  let w = find_invalid t set 0 in
  if w >= 0 then w
  else if count_unlocked t 0 0 = 0 then -1
  else begin
    (* advance round-robin pointer to the next unlocked way *)
    let w = next_unlocked t t.rr.(set) in
    t.rr.(set) <- (w + 1) mod t.ways;
    w
  end

(* Allocate (fill) the line containing [addr]; returns the way, or
   -1 when allocation is impossible (fully locked cache). *)
let fill_way t addr =
  let set = set_of_addr t addr and tag = tag_of_addr t addr in
  let w = victim_way t set in
  if w < 0 then -1
  else begin
    let l = t.lines.(w).(set) in
    write_back t w set;
    let base = line_base t addr in
    Dram.read_into t.dram ~initiator:`L2 base l.data ~off:0 ~len:t.line_size;
    (match t.shadows with
    | Some s -> Dram.blit_shadow_into t.dram base t.line_size s.(w).(set) 0
    | None -> ());
    l.valid <- true;
    l.dirty <- false;
    l.tag <- tag;
    t.last_way.(set) <- w;
    Clock.advance t.clock t.fill_ns;
    if Sentry_obs.Trace.on () then
      trace t "line-fill"
        ~args:[ ("way", Sentry_obs.Event.Int w); ("addr", Sentry_obs.Event.Int base) ];
    w
  end

(* ----------------------- CPU access path ------------------------- *)

(* Move [len] bytes between the caller's buffer and the line resident
   in way [w]: top-level (not a per-access closure) so the hot path
   allocates nothing. *)
let store_chunk t addr ~write ~taint buf buf_off len w =
  let off_in_line = addr land (t.line_size - 1) in
  let set = set_of_addr t addr in
  let l = t.lines.(w).(set) in
  if write then begin
    Bytes.blit buf buf_off l.data off_in_line len;
    (match t.shadows with
    | Some s -> Taint.fill s.(w).(set) off_in_line len taint
    | None -> ());
    l.dirty <- true
  end
  else Bytes.blit l.data off_in_line buf buf_off len

(* One line-granule access: [off] is the offset inside the line,
   [len] stays within the line.  [taint] labels written bytes.
   Allocation-free: data moves by direct blit between the caller's
   buffer and the line array (or DRAM view on a bypass). *)
let access_chunk t addr ~write ~taint buf buf_off len =
  let w = lookup_way t addr in
  if w >= 0 then begin
    charge_hit t;
    store_chunk t addr ~write ~taint buf buf_off len w
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    let w = fill_way t addr in
    if w >= 0 then store_chunk t addr ~write ~taint buf buf_off len w
    else begin
      (* allocation impossible: uncached DRAM access *)
      t.stats.bypasses <- t.stats.bypasses + 1;
      if Sentry_obs.Trace.on () then
        trace t "bypass"
          ~args:[ ("addr", Sentry_obs.Event.Int addr); ("write", Sentry_obs.Event.Bool write) ];
      Clock.advance t.clock Calib.dram_line_ns;
      if write then
        Dram.write_from t.dram ~initiator:`Cpu ~level:taint addr buf ~off:buf_off ~len
      else Dram.read_into t.dram ~initiator:`Cpu addr buf ~off:buf_off ~len
    end
  end

let iter_chunks t addr len f =
  let pos = ref addr and remaining = ref len and done_ = ref 0 in
  while !remaining > 0 do
    let off_in_line = !pos land (t.line_size - 1) in
    let chunk = min !remaining (t.line_size - off_in_line) in
    f !pos !done_ chunk;
    pos := !pos + chunk;
    done_ := !done_ + chunk;
    remaining := !remaining - chunk
  done

let check_view name buf ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length buf then
    invalid_arg (Printf.sprintf "Pl310.%s: bad view off=%d len=%d buf=%d" name off len (Bytes.length buf))

(* Line-granule walk of [len] bytes from [addr], moving data to/from
   [buf]: the top-level twin of [iter_chunks] for the CPU fast path —
   no closure, no ref cells, so a whole walk allocates nothing. *)
let rec rw_chunks t addr ~write ~taint buf buf_off len =
  if len > 0 then begin
    let off_in_line = addr land (t.line_size - 1) in
    let chunk = min len (t.line_size - off_in_line) in
    access_chunk t addr ~write ~taint buf buf_off chunk;
    rw_chunks t (addr + chunk) ~write ~taint buf (buf_off + chunk) (len - chunk)
  end

(** [read_into t addr buf ~off ~len] performs a cached CPU read
    straight into the caller's buffer: identical clock/energy/stats
    to [read] (which is implemented on top), no allocation. *)
let read_into t addr buf ~off ~len =
  check_view "read_into" buf ~off ~len;
  rw_chunks t addr ~write:false ~taint:Taint.Public buf off len

(** [read t addr len] performs a cached CPU read. *)
let read t addr len =
  let out = Bytes.create len in
  read_into t addr out ~off:0 ~len;
  out

(** [write_from t ?taint addr buf ~off ~len] performs a cached CPU
    write (write-allocate) of the [len]-byte view of [buf] at [off];
    [write] is implemented on top. *)
let write_from t ?(taint = Taint.Public) addr buf ~off ~len =
  check_view "write_from" buf ~off ~len;
  rw_chunks t addr ~write:true ~taint buf off len

(** [write t ?taint addr b] performs a cached CPU write
    (write-allocate), labelling the written bytes [taint]. *)
let write t ?taint addr b = write_from t ?taint addr b ~off:0 ~len:(Bytes.length b)

(* ------------------- batched run fast path ----------------------- *)

(* The batched lock/unlock pipeline moves whole pages per call, so the
   per-line host overhead of the generic path (per-call dispatch, the
   per-miss 8-way [count_unlocked] rescan, the [Dram] call envelope
   with its per-access bounds check and trace/monitor tests) is paid
   4096/32 = 128 times per page.  [read_run_into]/[write_run_from]
   run the same per-line state machine in one tight loop with those
   invariants hoisted.  Simulated behaviour is {e bit-identical} to
   [read_into]/[write_from]: the same per-line sequence of stats
   updates, [Clock.advance] calls, energy charges, bus transactions,
   DRAM blits, victim choices and memo updates (differentially
   tested).  Whenever an observer could tell the difference — tracing
   on, a bus monitor attached, a write-back hook installed — the run
   falls back to the generic path, which is the same state machine
   with the observers wired in. *)

let run_fast_ok t =
  (not (Sentry_obs.Trace.on ())) && t.on_writeback = None && not (Bus.monitored (Dram.bus t.dram))

(* Unchecked line/shadow access for the run paths: set and way
   indices there are masked or register-bounded.  Monomorphic, so the
   accesses compile without the generic-array float check. *)
let[@inline] uline (lines : line array array) w set = Array.unsafe_get (Array.unsafe_get lines w) set

let[@inline] ushadow (s : Bytes.t array array) w set = Array.unsafe_get (Array.unsafe_get s w) set

(* Victim write-back on the run fast path: [write_back] with the hook
   known absent and tracing known off, against the hoisted DRAM
   backing store [raw] (based at [dbase]) and its shadow. *)
let run_write_back t raw dbase dshadow l w set =
  let wb_addr = (l.tag lsl t.tag_shift) lor (set lsl t.set_shift) in
  Bytes.unsafe_blit l.data 0 raw (wb_addr - dbase) t.line_size;
  (match dshadow with
  | Some ds -> (
      match t.shadows with
      | Some s ->
          Bytes.unsafe_blit (ushadow s w set) 0 ds (wb_addr - dbase) t.line_size
      | None -> Taint.fill ds (wb_addr - dbase) t.line_size Taint.Public)
  | None -> ());
  Bus.account (Dram.bus t.dram) Bus.Write t.line_size;
  Clock.advance t.clock Calib.dram_line_ns;
  l.dirty <- false;
  t.stats.writebacks <- t.stats.writebacks + 1

(* The generic path validates DRAM lazily per access; the run paths
   validate the {e whole} line-rounded run at their first DRAM touch
   instead (the powered check is equivalent — power cannot change
   mid-run; an all-hit run still never validates).  Only error paths
   can tell: a run extending past the end of DRAM raises at the first
   miss, not at the offending line. *)
let validate_run t addr len =
  let line_mask = t.line_size - 1 in
  let run_base = addr land lnot line_mask in
  Dram.validate t.dram run_base (((addr + len - 1) lor line_mask) + 1 - run_base)

(* The tight loop.  [any_unlocked] is the hoisted
   [count_unlocked t 0 0 > 0] (the lockdown register cannot change
   inside a run).  Per-line behaviour mirrors [access_chunk] exactly
   — same stats/clock/energy/bus/blit/victim sequence; see the
   charge-order comments there.  Everything loop-invariant (geometry,
   the DRAM backing store and its shadow, the stats and charging
   handles) lives in locals, and array/bytes accesses are unsafe:
   set/way indices are masked or register-bounded, line offsets
   bounded by the chunk computation, the caller view by [check_view],
   and DRAM offsets by [validate_run] (write-back addresses are in
   range by construction — tags only ever come from in-range fills).
   The loop state lives in local refs no closure captures, and the way
   searches are the top-level [scan_ways]/[find_invalid]/
   [next_unlocked], so a run allocates nothing. *)
let run_chunks t ~any_unlocked ~write ~taint buf buf_off0 addr0 len0 =
  let lines = t.lines and rr = t.rr and last_way = t.last_way and stats = t.stats in
  let clock = t.clock and meter = t.meter and shadows = t.shadows in
  let line_size = t.line_size and set_shift = t.set_shift and tag_shift = t.tag_shift in
  let set_mask = t.sets - 1 and line_mask = t.line_size - 1 in
  let nways = t.ways and fill_ns = t.fill_ns in
  let raw = Dram.raw t.dram in
  let dbase = (Dram.region t.dram).Memmap.base in
  let bus = Dram.bus t.dram in
  let dshadow = Dram.shadow t.dram in
  let validated = ref false in
  let buf_off = ref buf_off0 and addr = ref addr0 and len = ref len0 in
  while !len > 0 do
    let a = !addr and bo = !buf_off in
    let off_in_line = a land line_mask in
    let chunk = let c = line_size - off_in_line in if c < !len then c else !len in
    let set = (a lsr set_shift) land set_mask in
    let tag = a lsr tag_shift in
    let m = Array.unsafe_get last_way set in
    let lm = uline lines m set in
    let w = if lm.valid && lm.tag = tag then m else scan_ways t set tag 0 in
    if w >= 0 then begin
      (* hit: [charge_hit] + [store_chunk] *)
      stats.hits <- stats.hits + 1;
      Clock.advance clock Calib.l2_hit_line_ns;
      Energy.meter_charge_bytes meter ~per_byte_j:Calib.onsoc_byte_j line_size;
      let l = uline lines w set in
      if write then begin
        Bytes.unsafe_blit buf bo l.data off_in_line chunk;
        (match shadows with
        | Some s -> Taint.fill (ushadow s w set) off_in_line chunk taint
        | None -> ());
        l.dirty <- true
      end
      else Bytes.unsafe_blit l.data off_in_line buf bo chunk
    end
    else begin
      stats.misses <- stats.misses + 1;
      let w =
        let inv = find_invalid t set 0 in
        if inv >= 0 then inv
        else if not any_unlocked then -1
        else begin
          let w = next_unlocked t (Array.unsafe_get rr set) in
          Array.unsafe_set rr set (if w + 1 = nways then 0 else w + 1);
          w
        end
      in
      if w < 0 then begin
        (* allocation impossible: uncached DRAM access (generic
           path's bypass branch, trace already known off) *)
        stats.bypasses <- stats.bypasses + 1;
        Clock.advance clock Calib.dram_line_ns;
        if not !validated then begin
          validate_run t addr0 len0;
          validated := true
        end;
        if write then begin
          Bytes.unsafe_blit buf bo raw (a - dbase) chunk;
          (match dshadow with
          | Some ds -> Taint.fill ds (a - dbase) chunk taint
          | None -> ());
          Bus.account bus Bus.Write chunk
        end
        else begin
          Bytes.unsafe_blit raw (a - dbase) buf bo chunk;
          Bus.account bus Bus.Read chunk
        end
      end
      else begin
        if not !validated then begin
          validate_run t addr0 len0;
          validated := true
        end;
        let l = uline lines w set in
        if l.valid && l.dirty then run_write_back t raw dbase dshadow l w set;
        (* line fill: identical to [fill_way]'s read + shadow + flags *)
        let base = a land lnot line_mask in
        Bytes.unsafe_blit raw (base - dbase) l.data 0 line_size;
        Bus.account bus Bus.Read line_size;
        (match shadows with
        | Some s -> (
            let sh = ushadow s w set in
            match dshadow with
            | Some ds -> Bytes.unsafe_blit ds (base - dbase) sh 0 line_size
            | None -> Taint.fill sh 0 line_size Taint.Public)
        | None -> ());
        l.valid <- true;
        l.dirty <- false;
        l.tag <- tag;
        Array.unsafe_set last_way set w;
        Clock.advance clock fill_ns;
        (* the [store_chunk] of the generic miss path *)
        if write then begin
          Bytes.unsafe_blit buf bo l.data off_in_line chunk;
          (match shadows with
          | Some s -> Taint.fill (ushadow s w set) off_in_line chunk taint
          | None -> ());
          l.dirty <- true
        end
        else Bytes.unsafe_blit l.data off_in_line buf bo chunk
      end
    end;
    buf_off := bo + chunk;
    addr := a + chunk;
    len := !len - chunk
  done

(** [read_run_into t addr buf ~off ~len] — the batched pipeline's
    page-run read: bit-identical simulated state evolution to
    [read_into] with the per-line host overhead hoisted.  Falls back
    to [read_into] whenever tracing, a bus monitor or a write-back
    hook could observe the difference in call shape. *)
let read_run_into t addr buf ~off ~len =
  if not (run_fast_ok t) then read_into t addr buf ~off ~len
  else begin
    check_view "read_run_into" buf ~off ~len;
    let any_unlocked = count_unlocked t 0 0 > 0 in
    run_chunks t ~any_unlocked ~write:false ~taint:Taint.Public buf off addr len
  end

(** [write_run_from t ?taint addr buf ~off ~len] — the batched
    pipeline's page-run write; see [read_run_into]. *)
let write_run_from t ?(taint = Taint.Public) addr buf ~off ~len =
  if not (run_fast_ok t) then write_from t ~taint addr buf ~off ~len
  else begin
    check_view "write_run_from" buf ~off ~len;
    let any_unlocked = count_unlocked t 0 0 > 0 in
    run_chunks t ~any_unlocked ~write:true ~taint buf off addr len
  end

(** Taint join over a physical range as the CPU sees it: resident
    lines' shadows where cached, DRAM's shadow elsewhere. *)
let taint_range t addr len =
  if not (taint_enabled t) then Taint.Public
  else begin
    let acc = ref Taint.Public in
    iter_chunks t addr len (fun a _ n ->
        let off_in_line = a land (t.line_size - 1) in
        let lvl =
          match lookup t a with
          | Some w -> (
              match line_shadow t w (set_of_addr t a) with
              | Some sh -> Taint.max_range sh off_in_line n
              | None -> Taint.Public)
          | None -> Dram.taint_range t.dram a n
        in
        acc := Taint.join !acc lvl);
    !acc
  end

(** Iterate over every valid resident line: [f ~way ~addr data] sees
    the controller's live data array (read-only by convention) — used
    by analysis passes searching the cache for key material. *)
let iter_resident t f =
  for w = 0 to t.ways - 1 do
    for set = 0 to t.sets - 1 do
      let l = t.lines.(w).(set) in
      if l.valid then
        let addr = (l.tag lsl t.tag_shift) lor (set lsl t.set_shift) in
        f ~way:w ~addr l.data
    done
  done

(* ---------------------- maintenance ops -------------------------- *)

let clean_invalidate_way t w =
  (* flushing a locked way is the §4.2 hazard: record it loudly *)
  if Sentry_obs.Trace.on () && t.lockdown land (1 lsl w) <> 0 then
    trace t "locked-way-flush" ~args:[ ("way", Sentry_obs.Event.Int w) ];
  for set = 0 to t.sets - 1 do
    write_back t w set;
    t.lines.(w).(set).valid <- false
  done;
  Clock.advance t.clock Calib.pl310_op_ns

(** [flush_masked t] — the Sentry-patched kernel flush: cleans and
    invalidates every way {e not} excluded by the flush mask, and
    leaves the lockdown register alone. *)
let flush_masked t =
  let start_ns = Clock.now t.clock in
  for w = 0 to t.ways - 1 do
    if t.flush_mask land (1 lsl w) = 0 then clean_invalidate_way t w
  done;
  if Sentry_obs.Trace.on () then
    trace t "flush-masked" ~ts:start_ns
      ~phase:(Sentry_obs.Event.Complete (Clock.now t.clock -. start_ns))
      ~args:[ ("skip_mask", Sentry_obs.Event.Int t.flush_mask) ]

(** [flush_all_stock t] — the stock kernel's full clean+invalidate.
    As the paper's hardware validation found (§4.2), this {e does}
    write back and drop locked ways and resets the lockdown state:
    running it with secrets in a locked way leaks them to DRAM.
    Sentry replaces every call site of this with [flush_masked]. *)
let flush_all_stock t =
  let start_ns = Clock.now t.clock in
  for w = 0 to t.ways - 1 do
    clean_invalidate_way t w
  done;
  if Sentry_obs.Trace.on () then begin
    trace t "flush-all-stock" ~ts:start_ns
      ~phase:(Sentry_obs.Event.Complete (Clock.now t.clock -. start_ns))
      ~args:[ ("dropped_lockdown", Sentry_obs.Event.Int t.lockdown) ];
    if t.lockdown <> 0 then
      trace t "way-lockdown"
        ~args:
          [ ("old_mask", Sentry_obs.Event.Int t.lockdown); ("new_mask", Sentry_obs.Event.Int 0) ]
  end;
  t.lockdown <- 0

(** Per-line maintenance used by DMA coherence code.  Honours the
    flush mask: lines resident in protected ways are left alone. *)
let clean_invalidate_range t addr len =
  iter_chunks t addr len (fun a _ _ ->
      match lookup t a with
      | Some w when t.flush_mask land (1 lsl w) = 0 ->
          let set = set_of_addr t a in
          write_back t w set;
          t.lines.(w).(set).valid <- false
      | Some _ | None -> ())

(** [clean_invalidate_run t addr len] — [clean_invalidate_range] on
    the run fast path: the same lines written back and dropped, in the
    same order, with the same charges, but as one loop over
    [lookup_way] with no option or closure per line.  Falls back to
    [clean_invalidate_range] whenever tracing, a bus monitor or a
    write-back hook could observe the call shape. *)
let clean_invalidate_run t addr len =
  if not (run_fast_ok t) then clean_invalidate_range t addr len
  else if len > 0 then begin
    let raw = Dram.raw t.dram and dbase = (Dram.region t.dram).Memmap.base in
    let dshadow = Dram.shadow t.dram in
    let validated = ref false in
    let a = ref (line_base t addr) in
    while !a < addr + len do
      let w = lookup_way t !a in
      if w >= 0 && t.flush_mask land (1 lsl w) = 0 then begin
        let set = set_of_addr t !a in
        let l = t.lines.(w).(set) in
        if l.dirty then begin
          if not !validated then begin
            validate_run t addr len;
            validated := true
          end;
          run_write_back t raw dbase dshadow l w set
        end;
        l.valid <- false
      end;
      a := !a + t.line_size
    done
  end

(** Invalidate without cleaning (used before incoming DMA writes so
    the CPU does not read stale lines).  Locked/masked ways are
    skipped. *)
let invalidate_range t addr len =
  iter_chunks t addr len (fun a _ _ ->
      match lookup t a with
      | Some w when t.flush_mask land (1 lsl w) = 0 ->
          t.lines.(w).(set_of_addr t a).valid <- false
      | Some _ | None -> ())

(** Power-on reset: the low-level firmware resets the controller and
    zeroes the data arrays, so cache contents never survive a cold
    boot (§4.3). *)
let reset t =
  for w = 0 to t.ways - 1 do
    for set = 0 to t.sets - 1 do
      let l = t.lines.(w).(set) in
      l.valid <- false;
      l.dirty <- false;
      l.tag <- 0;
      Bytes.fill l.data 0 t.line_size '\000';
      match line_shadow t w set with
      | Some sh -> Taint.fill sh 0 t.line_size Taint.Public
      | None -> ()
    done
  done;
  t.lockdown <- 0;
  t.flush_mask <- 0;
  Array.fill t.rr 0 t.sets 0

(** Test/attack helper: the raw bytes of a resident line, if any.
    Models probing the SRAM arrays directly (requires decapping the
    SoC — out of the paper's threat model, but used by tests to check
    what is and is not inside the package). *)
let peek_line t addr =
  match lookup t addr with
  | None -> None
  | Some w -> Some (Bytes.copy t.lines.(w).(set_of_addr t addr).data)

let hit_rate t =
  let s = t.stats in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
