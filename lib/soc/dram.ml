(** Off-SoC DRAM with a data-remanence model.

    The backing store is directly inspectable ([snapshot], [raw]) —
    that is the point: cold-boot and DMA attacks read this array, not
    the CPU's view through the cache. *)

open Sentry_util

type t = {
  region : Memmap.region;
  data : Bytes.t;
  bus : Bus.t;
  prng : Prng.t;
  mutable powered : bool;
  mutable shadow : Bytes.t option; (* taint labels, one per data byte *)
}

let create ~bus ~clock:_ ~prng ~size =
  {
    region = Memmap.region ~base:Memmap.dram_base ~size;
    data = Bytes.make size '\000';
    bus;
    prng;
    powered = true;
    shadow = None;
  }

(* ------------------------- taint shadow -------------------------- *)

let enable_taint t =
  if t.shadow = None then t.shadow <- Some (Taint.create_shadow (Bytes.length t.data))

let taint_enabled t = t.shadow <> None

(** Taint join over a physical range ([Public] when tracking is off). *)
let taint_range t addr len =
  match t.shadow with
  | None -> Taint.Public
  | Some s -> Taint.max_range s (Memmap.offset t.region addr) len

(** Copy of the shadow labels behind a physical range. *)
let shadow_of_range t addr len =
  match t.shadow with
  | None -> Taint.create_shadow len
  | Some s -> Bytes.sub s (Memmap.offset t.region addr) len

(** Uniformly relabel a physical range (zeroing thread, boot-time
    clobbers, DMA-written attacker data). *)
let set_taint t addr len level =
  match t.shadow with
  | None -> ()
  | Some s -> Taint.fill s (Memmap.offset t.region addr) len level

(** The raw shadow store, for analysis passes (same layout as [raw]);
    [None] until taint tracking is enabled. *)
let shadow t = t.shadow

let region t = t.region
let size t = t.region.Memmap.size
let contains t addr = Memmap.contains t.region addr

(** A typed power fault, so the fault engine and recovery paths can
    distinguish "the rails are down" from programming errors. *)
exception Powered_off

let check t addr len =
  if not (t.powered) then raise Powered_off;
  if not (contains t addr && (len = 0 || contains t (addr + len - 1))) then
    invalid_arg (Printf.sprintf "Dram: access out of range 0x%x+%d" addr len)

(** [validate t addr len] — the access check alone ([Powered_off] /
    range), for fast paths that hoist it out of a per-line loop and
    then touch the backing store directly. *)
let validate = check

(** The memory bus this DRAM answers on, for fast paths that inline
    their own transaction accounting. *)
let bus t = t.bus

(** [read_into t ~initiator addr buf ~off ~len] fetches bytes over the
    bus straight into [buf] at [off] — the scatter-gather fast path:
    no intermediate buffer is allocated, and the recorded bus
    transaction carries bit-identical bytes, taint and energy to the
    allocating [read]. *)
let read_into t ~initiator addr buf ~off ~len =
  check t addr len;
  let src_off = Memmap.offset t.region addr in
  Bytes.blit t.data src_off buf off len;
  Bus.record_view t.bus ~initiator ~taint:(taint_range t addr len) Bus.Read addr buf ~off ~len

(** [read t ~initiator addr len] fetches bytes over the bus. *)
let read t ~initiator addr len =
  let b = Bytes.create len in
  read_into t ~initiator addr b ~off:0 ~len;
  b

(** [write_from t ~initiator ?level ?taint addr buf ~off ~len] stores
    the [len]-byte view of [buf] at [off] over the bus; the written
    range's shadow comes from [taint] (per-byte labels) when given,
    else uniformly from [level] (default [Public]).  The allocating
    [write] is implemented on top. *)
let write_from t ~initiator ?(level = Taint.Public) ?taint addr buf ~off ~len =
  check t addr len;
  let dst_off = Memmap.offset t.region addr in
  Bytes.blit buf off t.data dst_off len;
  let txn_taint =
    match t.shadow with
    | None -> Taint.Public
    | Some s ->
        (match taint with
        | Some tb -> Bytes.blit tb 0 s dst_off len
        | None -> Taint.fill s dst_off len level);
        Taint.max_range s dst_off len
  in
  Bus.record_view t.bus ~initiator ~taint:txn_taint Bus.Write addr buf ~off ~len

let write t ~initiator ?level ?taint addr b =
  write_from t ~initiator ?level ?taint addr b ~off:0 ~len:(Bytes.length b)

(** Copy the shadow labels behind a physical range into [dst] at
    [dst_off] (all-[Public] when tracking is off): the allocation-free
    twin of [shadow_of_range] for the L2 line-fill path. *)
let blit_shadow_into t addr len dst dst_off =
  match t.shadow with
  | None -> Taint.fill dst dst_off len Taint.Public
  | Some s -> Bytes.blit s (Memmap.offset t.region addr) dst dst_off len

(** Direct backing-store access for attack tooling and test assertions
    (no bus traffic — this is "desoldering the chip", not a CPU read). *)
let raw t = t.data

let snapshot t = Bytes.copy t.data

(* Remanence is drawn a chunk at a time into a survival mask, then
   blended into the cells a word at a time, without a branch per
   byte.  Chunks start on a row boundary, so each aligned 8-byte word
   lies in one 64-byte row. *)
let decay_chunk = 4096

(* [blend_decay buf pos keep len ~even ~odd] sets [buf.[pos + i]] to
   the ground byte of its 64-byte row ([even] or [odd] by row parity)
   wherever [keep.[i]] is ['\x00'] (a decayed cell) and leaves it where
   [keep.[i]] is ['\xff'] (a surviving one).  [pos] is a multiple of 8. *)
let blend_decay buf pos keep len ~even ~odd =
  let word b = Int64.mul 0x0101010101010101L (Int64.of_int b) in
  let even_w = word even and odd_w = word odd in
  let words = len lsr 3 in
  for w = 0 to words - 1 do
    let i = w lsl 3 in
    let k = Bytes.get_int64_ne keep i in
    let ground = if ((pos + i) lsr 6) land 1 = 0 then even_w else odd_w in
    let v = Bytes.get_int64_ne buf (pos + i) in
    Bytes.set_int64_ne buf (pos + i) Int64.(logor (logand v k) (logand ground (lognot k)))
  done;
  for i = words lsl 3 to len - 1 do
    let k = Char.code (Bytes.unsafe_get keep i) in
    let ground = if ((pos + i) lsr 6) land 1 = 0 then even else odd in
    let v = Char.code (Bytes.unsafe_get buf (pos + i)) in
    Bytes.unsafe_set buf (pos + i) (Char.unsafe_chr ((v land k) lor (ground land lnot k)))
  done

let public_label = Char.code (Taint.to_char Taint.Public)

(** [power_cycle t ~off_s] models removing power for [off_s] seconds.
    Each byte independently survives with the Table 2-calibrated
    probability; decayed bytes fall to the DRAM ground state (0x00 or
    0xFF depending on cell polarity — we model half and half, decided
    per 64-byte row, as real modules ground alternate rows).  The
    survival draws are [Prng.flips_into], so they and the PRNG state
    left behind are exactly those of one [Prng.flip] per byte. *)
let power_cycle t ~off_s =
  if t.powered then
    invalid_arg "Dram.power_cycle: still powered (cells decay only without self-refresh)";
  let p = Calib.dram_survival ~power_off_s:off_s in
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit ~cat:Sentry_obs.Event.Mem ~subsystem:"soc.dram" "power-cycle"
      ~args:[ ("off_s", Sentry_obs.Event.Float off_s); ("survival_p", Sentry_obs.Event.Float p) ];
  if p < 1.0 then begin
    let n = Bytes.length t.data in
    let keep = Bytes.create decay_chunk in
    let pos = ref 0 in
    while !pos < n do
      let len = Int.min decay_chunk (n - !pos) in
      Prng.flips_into t.prng ~p keep ~off:0 ~len;
      blend_decay t.data !pos keep len ~even:0x00 ~odd:0xff;
      (* a decayed cell holds the ground state, not the secret *)
      (match t.shadow with
      | Some s -> blend_decay s !pos keep len ~even:public_label ~odd:public_label
      | None -> ());
      pos := !pos + len
    done
  end

let set_powered t powered = t.powered <- powered
