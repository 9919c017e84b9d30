(** AES_On_SoC (§6.2): an AES whose entire sensitive state — secret
    and access-protected alike — lives on the SoC, and whose use of
    CPU registers is protected against context-switch spills.

    Construction requires a base address in on-SoC storage (iRAM or a
    DRAM alias backed by a locked L2 way, provided by
    [Sentry_core.Onsoc]); the context never touches off-SoC memory.

    The computation bracket reproduces the paper's two macros:
    [onsoc_disable_irq()] before touching sensitive state in
    registers, and [onsoc_enable_irq()] — zero every register, then
    re-enable — after.  The procedure-call discipline (≤ 4 arguments,
    so nothing sensitive is passed on a DRAM stack) is checked by a
    test over this module's own interface. *)

open Sentry_soc

type storage = In_iram | In_locked_l2 | In_pinned

type t = {
  machine : Machine.t;
  storage : storage;
  base : int;
  mutable block : Aes_block.t;
  mutable fast_key : Aes.key; (* host-side twin schedule, for the bulk page kernel *)
  chain : Bytes.t; (* batch-to-batch chaining block for [transform] *)
  variant : Perf.variant;
}

let storage t = t.storage
let base t = t.base

let storage_name = function
  | In_iram -> "iRAM"
  | In_locked_l2 -> "locked L2"
  | In_pinned -> "pinned on-SoC memory"

(** [create machine ~storage ~base ~key] builds the cipher with its
    context at physical [base] (must lie in iRAM, or in a DRAM range
    whose lines are pinned in a locked way). *)
let create machine ~storage ~base ~key =
  let acc = Accessor.machine machine ~base in
  (* The context writes carry key-schedule material: label them. *)
  let block =
    Machine.with_taint machine Taint.Secret_cleartext (fun () -> Aes_block.init acc ~key)
  in
  let variant =
    match storage with
    | In_iram | In_pinned -> Perf.Onsoc_iram (* SRAM-class timing *)
    | In_locked_l2 -> Perf.Onsoc_locked_l2
  in
  {
    machine;
    storage;
    base;
    block;
    fast_key = Aes.expand key;
    chain = Bytes.create 16;
    variant;
  }

let context_bytes t = Aes_block.context_size t.block.Aes_block.size

(** Run [f] with sensitive state live in CPU registers, under the IRQ
    bracket.  A context switch cannot fire inside, and the registers
    are zeroed before interrupts come back on. *)
let with_protected_registers t ~sensitive f =
  let cpu = Machine.cpu t.machine in
  Cpu.with_irqs_off cpu (fun () ->
      Cpu.load_regs cpu ~taint:Taint.Secret_cleartext sensitive;
      f ())

let key_schedule_head t = t.block.Aes_block.acc.Accessor.load 0 64

(* Block operations run in batches sized so interrupts stay off for
   roughly the paper's measured 160 us window. *)
let irq_batch_blocks = 64

let transform t ~(dir : [ `Encrypt | `Decrypt ]) ~iv data =
  let n = Bytes.length data in
  if n mod 16 <> 0 then invalid_arg "Aes_on_soc.transform: not block aligned";
  Aes_block.set_iv t.block iv;
  let cipher = Aes_block.cipher t.block in
  (* Process in IRQ-bracketed batches; each batch reloads sensitive
     registers and zeroes them on exit.  Batches index straight into
     [data]/[result] — no per-batch slices. *)
  let result = Bytes.create n in
  let scratch = Mode.make_scratch () in
  let nblocks = n / 16 in
  let pos = ref 0 in
  Bytes.blit iv 0 t.chain 0 16;
  while !pos < nblocks do
    let batch = min irq_batch_blocks (nblocks - !pos) in
    let off = !pos * 16 and len = batch * 16 in
    with_protected_registers t ~sensitive:(key_schedule_head t) (fun () ->
        match dir with
        | `Encrypt ->
            Mode.cbc_encrypt_into ~scratch cipher ~iv:t.chain ~src:data ~src_off:off
              ~dst:result ~dst_off:off ~len
        | `Decrypt ->
            Mode.cbc_decrypt_into ~scratch cipher ~iv:t.chain ~src:data ~src_off:off
              ~dst:result ~dst_off:off ~len);
    (* next batch chains off the last ciphertext block just handled *)
    (match dir with
    | `Encrypt -> Bytes.blit result (off + len - 16) t.chain 0 16
    | `Decrypt -> Bytes.blit data (off + len - 16) t.chain 0 16);
    pos := !pos + batch
  done;
  result

let encrypt t ~iv data = transform t ~dir:`Encrypt ~iv data
let decrypt t ~iv data = transform t ~dir:`Decrypt ~iv data

(* The host-side page kernel: the fused register-chained CBC of
   [Aes.cbc_*_into] over the cached schedule.  Decryption runs in
   place, so an out-of-place decrypt first copies the ciphertext into
   [dst]. *)
let kernel t ~(dir : [ `Encrypt | `Decrypt ]) ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len =
  match dir with
  | `Encrypt -> Aes.cbc_encrypt_into t.fast_key ~iv ~iv_off src src_off dst dst_off (len / 16)
  | `Decrypt ->
      if src != dst || src_off <> dst_off then Bytes.blit src src_off dst dst_off len;
      Aes.cbc_decrypt_into t.fast_key ~iv ~iv_off dst dst_off (len / 16)

(* The kernel checks its views itself; only a ragged tail would slip
   through its block count. *)
let check_aligned name len = if len mod 16 <> 0 then invalid_arg (name ^ ": not block aligned")

(** Bulk transform for the paging engine, scatter-gather flavour:
    transform the [len]-byte view of [src] into [dst] ([src]/[dst]
    may alias for in-place work) with the fused host-side kernel
    (bit-identical result to the instrumented path) and charge the
    modeled on-SoC cost.  Register/IRQ discipline is still exercised;
    the cipher itself allocates nothing. *)
let bulk_into t ~(dir : [ `Encrypt | `Decrypt ]) ~iv ~src ~src_off ~dst ~dst_off ~len =
  if Bytes.length iv <> 16 then invalid_arg "Aes_on_soc.bulk_into: bad IV";
  check_aligned "Aes_on_soc.bulk_into" len;
  let start_ns = Clock.now (Machine.clock t.machine) in
  with_protected_registers t ~sensitive:(key_schedule_head t) (fun () ->
      (* the modeled transform time elapses inside the bracket: this is
         exactly the window interrupts stay masked (§6.2) *)
      Perf.charge t.machine t.variant ~bytes:len;
      kernel t ~dir ~iv ~iv_off:0 ~src ~src_off ~dst ~dst_off ~len);
  if Sentry_obs.Trace.on () then
    Sentry_obs.Trace.span ~cat:Sentry_obs.Event.Crypto ~subsystem:"crypto.aes_on_soc" ~start_ns
      ~end_ns:(Clock.now (Machine.clock t.machine))
      ~args:
        [
          ("storage", Sentry_obs.Event.Str (storage_name t.storage));
          ("bytes", Sentry_obs.Event.Int len);
        ]
      (match dir with `Encrypt -> "bulk-encrypt" | `Decrypt -> "bulk-decrypt")

(** Host-side transform only: the same page kernel as [bulk_into] but
    with no [Perf.charge] and no IRQ bracket.  For engine models that
    account simulated time/energy themselves — the [Offload_engine]
    command queue — while ciphertext must stay bit-identical to the
    CPU path.  The key never transits CPU registers here (it lives in
    the engine), so there is nothing to protect with an IRQ window. *)
let bulk_fused_raw t ~(dir : [ `Encrypt | `Decrypt ]) ~iv ~iv_off ~src ~src_off ~dst ~dst_off
    ~len =
  check_aligned "Aes_on_soc.bulk_fused_raw" len;
  kernel t ~dir ~iv ~iv_off ~src ~src_off ~dst ~dst_off ~len

(** Allocating wrapper over [bulk_into]; identical cost and trace. *)
let bulk t ~(dir : [ `Encrypt | `Decrypt ]) ~iv data =
  let n = Bytes.length data in
  let out = Bytes.create n in
  bulk_into t ~dir ~iv ~src:data ~src_off:0 ~dst:out ~dst_off:0 ~len:n;
  out

(** Re-key: rewrites the on-SoC context and the cached bulk-path
    schedule together, so [bulk]/[bulk_into] never run a stale key. *)
let set_key t key =
  t.block <-
    Machine.with_taint t.machine Taint.Secret_cleartext (fun () ->
        Aes_block.init t.block.Aes_block.acc ~key);
  t.fast_key <- Aes.expand key

(** Register with a [Crypto_api] {e above} the generic cipher and any
    accelerator driver, so legacy Crypto-API users (dm-crypt) pick up
    AES_On_SoC transparently (§7). *)
let register t api =
  Crypto_api.register api
    {
      Crypto_api.name = "aes-on-soc";
      algorithm = "cbc(aes)";
      priority = 500;
      set_key = set_key t;
      encrypt = (fun ~iv data -> bulk t ~dir:`Encrypt ~iv data);
      decrypt = (fun ~iv data -> bulk t ~dir:`Decrypt ~iv data);
    }

(** XTS flavour: the 32-byte key's data half lives in the on-SoC
    context (so nothing new reaches DRAM) and transforms run under the
    same IRQ bracket and modeled cost. *)
let register_xts t api =
  let xts_key = ref None in
  Crypto_api.register api
    {
      Crypto_api.name = "aes-on-soc-xts";
      algorithm = "xts(aes)";
      priority = 500;
      set_key =
        (fun key ->
          set_key t (Bytes.sub key 0 16);
          xts_key := Some (Xts.expand key));
      encrypt =
        (fun ~iv data ->
          let k = match !xts_key with Some k -> k | None -> failwith "xts: no key" in
          with_protected_registers t ~sensitive:(key_schedule_head t) (fun () ->
              Perf.charge t.machine t.variant ~bytes:(Bytes.length data);
              Xts.encrypt k ~tweak:iv data));
      decrypt =
        (fun ~iv data ->
          let k = match !xts_key with Some k -> k | None -> failwith "xts: no key" in
          with_protected_registers t ~sensitive:(key_schedule_head t) (fun () ->
              Perf.charge t.machine t.variant ~bytes:(Bytes.length data);
              Xts.decrypt k ~tweak:iv data));
    }

(** Erase the on-SoC context (device shutdown / re-key). *)
let wipe t = Aes_block.wipe t.block
