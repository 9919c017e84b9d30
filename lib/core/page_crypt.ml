(** Per-page encryption under the volatile root key.

    Every 4 KB page is CBC-encrypted with a per-page ESSIV-style IV
    derived from (pid, vpn), so identical pages get distinct
    ciphertexts and pages can be decrypted independently and lazily.
    All transforms go through [Aes_on_soc]; the only cipher state in
    play lives on-SoC. *)

open Sentry_soc
open Sentry_crypto
open Sentry_kernel

type t = {
  machine : Machine.t;
  aes : Aes_on_soc.t;
  engine : Offload_engine.t; (* MemShield-style command queue (Offload backend) *)
  mutable essiv : Essiv.t; (* replaced when recovery re-keys after power loss *)
  page_buf : Bytes.t; (* reused staging buffer for the frame paths *)
  iv_buf : Bytes.t; (* reused IV buffer for the batch paths *)
  mutable bytes_encrypted : int;
  mutable bytes_decrypted : int;
}

let create machine ~aes ~volatile_key =
  {
    machine;
    aes;
    engine = Offload_engine.create machine;
    essiv = Essiv.create ~key:volatile_key;
    page_buf = Bytes.create Page.size;
    iv_buf = Bytes.create 16;
    bytes_encrypted = 0;
    bytes_decrypted = 0;
  }

let machine t = t.machine
let engine t = t.engine

(** [rekey t ~volatile_key] — rebuild the per-page IV derivation under
    a fresh volatile key (crash recovery: the old key died with the
    power).  The AES context itself is re-keyed separately via
    [Aes_on_soc.set_key]; this [t] (and every reference to it, e.g.
    the background pager's) stays valid. *)
let rekey t ~volatile_key = t.essiv <- Essiv.create ~key:volatile_key

(** IV for page [vpn] of process [pid]. *)
let iv t ~pid ~vpn = Essiv.iv t.essiv ~sector:((pid lsl 24) lxor vpn)

let encrypt_bytes t ~pid ~vpn data =
  t.bytes_encrypted <- t.bytes_encrypted + Bytes.length data;
  Aes_on_soc.bulk t.aes ~dir:`Encrypt ~iv:(iv t ~pid ~vpn) data

let decrypt_bytes t ~pid ~vpn data =
  t.bytes_decrypted <- t.bytes_decrypted + Bytes.length data;
  Aes_on_soc.bulk t.aes ~dir:`Decrypt ~iv:(iv t ~pid ~vpn) data

let trace_frame t name ~pid ~vpn ~frame =
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.emit
      ~ts:(Clock.now (Machine.clock t.machine))
      ~cat:Sentry_obs.Event.Crypto ~subsystem:"core.page_crypt" name
      ~args:
        [
          ("pid", Sentry_obs.Event.Int pid);
          ("vpn", Sentry_obs.Event.Int vpn);
          ("frame", Sentry_obs.Event.Int frame);
        ]

(* The one page transform every pager path takes — lazy faults, the
   per-page and batched walks, recovery, region decrypts and the
   offload engine: cached run-path read into the reused staging
   buffer, counter, mid-call fault hook, IV into the reused IV
   buffer, the fused cipher kernel in place, then the taint-labelled
   write-back (for an encrypt, cleaned out to DRAM).  Passing through
   the cipher relabels the bytes: [Ciphertext] on the way in,
   [Secret_cleartext] on the way out.
   With [~offload] the cipher runs host-side only and the page is a
   command on the [Offload_engine] queue, which accounts its
   simulated time and energy; the bytes are the same. *)
let transform t ~offload ~(dir : [ `Encrypt | `Decrypt ]) ~pid ~vpn ~frame =
  trace_frame t (match dir with `Encrypt -> "encrypt-frame" | `Decrypt -> "decrypt-frame") ~pid
    ~vpn ~frame;
  Machine.read_run_into t.machine frame t.page_buf ~off:0 ~len:Page.size;
  (match dir with
  | `Encrypt -> t.bytes_encrypted <- t.bytes_encrypted + Page.size
  | `Decrypt -> t.bytes_decrypted <- t.bytes_decrypted + Page.size);
  (* fault hook: a reset here dies mid-call — the frame is still
     untransformed in memory (the staging buffer is not addressable),
     so recovery's redo of this page is idempotent *)
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.frame_transform;
  Essiv.iv_into t.essiv ~sector:((pid lsl 24) lxor vpn) t.iv_buf 0;
  if offload then begin
    Aes_on_soc.bulk_fused_raw t.aes ~dir ~iv:t.iv_buf ~iv_off:0 ~src:t.page_buf ~src_off:0
      ~dst:t.page_buf ~dst_off:0 ~len:Page.size;
    Offload_engine.submit t.engine ~bytes:Page.size
  end
  else
    Aes_on_soc.bulk_into t.aes ~dir ~iv:t.iv_buf ~src:t.page_buf ~src_off:0 ~dst:t.page_buf
      ~dst_off:0 ~len:Page.size;
  let level = match dir with `Encrypt -> Taint.Ciphertext | `Decrypt -> Taint.Secret_cleartext in
  Machine.with_taint t.machine level (fun () ->
      Machine.write_run_from t.machine frame t.page_buf ~off:0 ~len:Page.size);
  match dir with
  | `Encrypt ->
      (* the ciphertext goes to DRAM before the caller commits the page
         (PTE bit, journal record): a crash drops dirty L2 lines, so a
         page committed with its ciphertext still in the cache would
         come back as the cleartext DRAM held, and recovery, trusting
         the PTE, would skip it *)
      Pl310.clean_invalidate_run (Machine.l2 t.machine) frame Page.size
  | `Decrypt -> ()

(** Encrypt a frame in place (lock path).  The caller's [commit] (PTE
    flag + journal record) belongs to the same crash unit as the
    write-back: it lands before the page-boundary fault hook, or a
    crash at the hook would leave this frame as ciphertext that the
    PTE still calls cleartext — and the recovery sweep (keyed off PTE
    bits) would encrypt it a second time, garbling the page for good.
    The hook itself fires after ciphertext, PTE flag and journal
    record have all committed. *)
let encrypt_frame ?(commit = fun () -> ()) t ~pid ~vpn ~frame =
  transform t ~offload:false ~dir:`Encrypt ~pid ~vpn ~frame;
  commit ();
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_encrypted

(** Decrypt a frame in place (lazy unlock path); the recovered bytes
    are secret cleartext again. *)
let decrypt_frame t ~pid ~vpn ~frame =
  transform t ~offload:false ~dir:`Decrypt ~pid ~vpn ~frame;
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_decrypted

(** Single-page lazy decrypt through the offload engine — the losing
    side of the crossover: submit one command, then block on the full
    fixed completion latency before the faulting process can run. *)
let decrypt_frame_offload t ~pid ~vpn ~frame =
  transform t ~offload:true ~dir:`Decrypt ~pid ~vpn ~frame;
  Offload_engine.flush t.engine;
  Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_decrypted

(* ----------------------- batched pipeline ------------------------ *)

(** One page of a batched lock/unlock pass; [frame] is the physical
    frame address.  The caller sorts items by frame so the walk sweeps
    DRAM (and the physically-indexed L2) monotonically. *)
type batch_item = { pid : int; vpn : int; frame : int }

(* The batch walk: each page takes [transform], with the per-page
   commit slots of the frame paths.  Encrypt: [complete i] right after
   the ciphertext lands and before the [page_encrypted] hook (the
   caller flips the PTE and journals there, as in [encrypt_frame]'s
   [commit]), so a crash at any page boundary leaves every ciphertext
   page flagged and recovery's PTE-keyed roll-forward idempotent.
   Decrypt: [prepare i] before the page is touched (the caller clears
   the encrypted bit there — fail-secure: a crash mid-transform
   re-encrypts on recovery), [complete i] after the cleartext and the
   [page_decrypted] hook.  The offload walk polls the engine once,
   after the last page, amortizing its fixed latency over the run. *)
let walk t ~offload ~dir ~span items ~prepare ~complete =
  let traced = Sentry_obs.Trace.on () in
  if traced then
    Sentry_obs.Trace.enter_span
      ~ts:(Clock.now (Machine.clock t.machine))
      ~cat:Sentry_obs.Event.Crypto ~subsystem:"core.page_crypt" span;
  Array.iteri
    (fun i { pid; vpn; frame } ->
      prepare i;
      transform t ~offload ~dir ~pid ~vpn ~frame;
      match dir with
      | `Encrypt ->
          complete i;
          Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_encrypted
      | `Decrypt ->
          Sentry_faults.Injector.fire Sentry_faults.Injector.Points.page_decrypted;
          complete i)
    items;
  if offload then Offload_engine.flush t.engine;
  if traced then
    Sentry_obs.Trace.exit_span
      ~ts:(Clock.now (Machine.clock t.machine))
      ~args:[ ("pages", Sentry_obs.Event.Int (Array.length items)) ]
      ()

let no_prepare (_ : int) = ()

let encrypt_batch t items ~complete =
  walk t ~offload:false ~dir:`Encrypt ~span:"encrypt-batch" items ~prepare:no_prepare ~complete

let decrypt_batch t items ~prepare ~complete =
  walk t ~offload:false ~dir:`Decrypt ~span:"decrypt-batch" items ~prepare ~complete

let encrypt_batch_offload t items ~complete =
  walk t ~offload:true ~dir:`Encrypt ~span:"encrypt-batch-offload" items ~prepare:no_prepare
    ~complete

let decrypt_batch_offload t items ~prepare ~complete =
  walk t ~offload:true ~dir:`Decrypt ~span:"decrypt-batch-offload" items ~prepare ~complete

let counters t = (t.bytes_encrypted, t.bytes_decrypted)

let reset_counters t =
  t.bytes_encrypted <- 0;
  t.bytes_decrypted <- 0
