(** Per-page encryption under the volatile root key, with ESSIV-style
    per-(pid, vpn) IVs.  All transforms go through [Aes_on_soc]. *)

open Sentry_soc

type t

val create : Machine.t -> aes:Sentry_crypto.Aes_on_soc.t -> volatile_key:Bytes.t -> t

val machine : t -> Machine.t

(** The MemShield-style command queue behind the [Offload] backend
    (created with the [t]; idle unless the offload paths run). *)
val engine : t -> Sentry_crypto.Offload_engine.t

(** Rebuild the IV derivation under a fresh volatile key (crash
    recovery after power loss); the [t] and every reference to it
    stay valid.  Re-key the AES context separately. *)
val rekey : t -> volatile_key:Bytes.t -> unit

(** Deterministic IV for page [vpn] of process [pid]. *)
val iv : t -> pid:int -> vpn:int -> Bytes.t

val encrypt_bytes : t -> pid:int -> vpn:int -> Bytes.t -> Bytes.t
val decrypt_bytes : t -> pid:int -> vpn:int -> Bytes.t -> Bytes.t

(** Encrypt a physical frame in place.  Every page transform — these
    two, the batch and offload walks below — is one path: run-path
    read into a reused staging buffer, fault hook, the fused cipher
    kernel in place, taint-labelled run-path write-back.
    [?commit] runs after the ciphertext write-back and {e before} the
    [page_encrypted] fault hook — flip the PTE and journal there, so
    a crash at the page boundary never leaves committed ciphertext
    that the PTE still calls cleartext (recovery would re-encrypt
    it: a double-encrypt that garbles the page). *)
val encrypt_frame : ?commit:(unit -> unit) -> t -> pid:int -> vpn:int -> frame:int -> unit

(** Decrypt a physical frame in place. *)
val decrypt_frame : t -> pid:int -> vpn:int -> frame:int -> unit

(** {2 Batched pipeline}

    The batch engine transforms a pre-gathered, frame-sorted set of
    pages, each through the same page transform as
    [encrypt_frame]/[decrypt_frame], with the same commit slots, so
    per-page observables are bit-identical. *)

(** One page of a batch; [frame] is the physical frame address. *)
type batch_item = { pid : int; vpn : int; frame : int }

(** Encrypt every item in order; [complete i] runs right after item
    [i]'s ciphertext lands and before its [page_encrypted] fault hook
    — flip the PTE and journal there (fail-secure {e and} idempotent
    ordering, as [encrypt_frame]'s [?commit]). *)
val encrypt_batch : t -> batch_item array -> complete:(int -> unit) -> unit

(** Decrypt every item in order; [prepare i] fires before item [i] is
    read (clear the PTE's encrypted bit there — fail-secure), and
    [complete i] after the cleartext and the [page_decrypted] hook. *)
val decrypt_batch : t -> batch_item array -> prepare:(int -> unit) -> complete:(int -> unit) -> unit

(** {2 Offload pipeline}

    Twins of the batch engine that submit each page as a command to
    the [Offload_engine] queue instead of charging the CPU cipher.
    Simulated DRAM/PTE/taint evolution is bit-identical to the CPU
    paths (same page transform, the kernel via
    [Aes_on_soc.bulk_fused_raw], same hooks and commit slots); only
    time/energy accounting differs. *)

val encrypt_batch_offload : t -> batch_item array -> complete:(int -> unit) -> unit

val decrypt_batch_offload :
  t -> batch_item array -> prepare:(int -> unit) -> complete:(int -> unit) -> unit

(** Single-page lazy decrypt through the engine: one command, then a
    blocking completion poll — pays the full fixed latency. *)
val decrypt_frame_offload : t -> pid:int -> vpn:int -> frame:int -> unit

(** (bytes encrypted, bytes decrypted) since the last reset — the
    counters behind the Figs 2-4 "MBytes" series. *)
val counters : t -> int * int

val reset_counters : t -> unit
