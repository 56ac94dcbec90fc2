(** The guest library runtime: AvA's API-agnostic marshalling engine on
    the VM side.

    Generated guest stubs (the plan-driven glue in [Ava_core]) call
    {!invoke}; this module handles sequencing, the sync/async decision
    from the compiled {!Ava_codegen.Plan}, reply matching, and the
    paper's deferred-error semantics: an asynchronously forwarded call's
    failure is reported by the next synchronous call on the same stub
    (§4.2).  The plan is the only judge of whether a call waits: no
    caller overrides it.  A synchronous call returns only once every
    failure of an asynchronous call below it is in the deferred-error
    channel. *)

open Ava_sim

module Plan = Ava_codegen.Plan
module Transport = Ava_transport.Transport

val first_guest_handle : int
(** Guest-assigned object ids start here — above the server's virtual-id
    range, so the two id spaces never collide. *)

type t

(** Recovery policy for lost calls/replies: after [timeout_ns] without a
    reply the encoded call is resent under its original seq (the server
    deduplicates and replays cached replies), the timeout scales by
    [backoff] per attempt, and after [max_retries] resends the call
    fails with {!Server.status_timeout} — surfaced directly for sync
    calls, through the deferred-error channel for async ones.  Each
    individual sleep is scattered uniformly in [±jitter] of the base
    schedule by a per-VM seeded stream, so two stubs that lose frames at
    the same instant do not resend in lockstep; [jitter = 0.0] draws
    nothing and reproduces the pure exponential schedule bit-for-bit. *)
type retry = {
  timeout_ns : Time.t;
  max_retries : int;
  backoff : float;
  jitter : float;
}

val default_retry : retry
(** 20 ms initial timeout, doubling, 12 attempts, 25% jitter. *)

(** Guest half of the content-addressed transfer cache: blobs within
    [cache_min_bytes, cache_max_bytes] are hashed ([Wire.digest]) and, once
    the server has acknowledged a digest, re-sent as a 13-byte
    {!Wire.value.Blob_ref} instead of the payload.  A cache-miss
    {!Message.t.Nak} makes the stub re-send the full payload under the
    original seq.  [cache_max_bytes] must not exceed the server store
    capacity, or an oversized blob would NAK forever. *)
type cache = { cache_min_bytes : int; cache_max_bytes : int }

val cache_for_capacity : int -> cache
(** [cache_for_capacity capacity] = 1 KiB minimum, [capacity] maximum —
    the stub config matching a server store of that capacity. *)

val sva_min_bytes : int
(** Blobs of at least this size (one page) are pinned and sent as
    [Mapped_ref]s when SVA is armed. *)

val create :
  ?batch_limit:int ->
  ?retry:retry ->
  ?cache:cache ->
  ?sva:Ava_device.Iommu.t ->
  ?obs:Ava_obs.Obs.t ->
  Engine.t ->
  vm_id:int ->
  plan:Plan.t ->
  ep:Transport.endpoint ->
  t
(** Also spawns the reply-receiver process on [ep].  [batch_limit] > 1
    enables rCUDA-style API batching: up to that many asynchronously
    forwarded calls are buffered into one transport message, flushed by
    the next synchronous call or by a 32 KiB size cap.  [retry] arms a
    per-call retransmission watchdog (off by default: without it no
    watchdog processes exist and the stub behaves exactly as before).
    [cache] arms the transfer cache (off by default: without it no
    hashing happens and the wire traffic is byte-identical to the
    pre-cache stack).  [sva] arms shared virtual addressing: blobs of at
    least {!sva_min_bytes} are pinned into the device IOVA window
    through the given IOMMU and travel as 13-byte [Mapped_ref]s (off by
    default; the server needs {!Server.set_sva} with the same IOMMU).
    [obs] arms per-call latency attribution: the stub
    opens a span per forwarded call and stamps its marshal/send/reply
    marks; the registry is passive and never advances virtual time. *)

val retries : t -> int
(** Watchdog resends performed so far. *)

val timeouts : t -> int
(** Calls that exhausted their retry budget. *)

val batches_sent : t -> int
(** Multi-call batch messages sent so far. *)

val sync_calls : t -> int
val async_calls : t -> int
val marshalled_bytes : t -> int
val in_flight : t -> int

val cache_refs : t -> int
(** Payloads sent as [Blob_ref] instead of their bytes. *)

val cache_saved_bytes : t -> int
(** Payload bytes elided from the wire by refs. *)

val cache_announces : t -> int
(** Payloads sent as [Blob_cached] (digest announcements). *)

val cache_nak_resends : t -> int
(** Full-payload resends triggered by cache-miss NAKs. *)

val sva_maps : t -> int
(** Blobs pinned and sent as [Mapped_ref] (SVA armed only). *)

val sva_saved_bytes : t -> int
(** Payload bytes elided from the wire by mapped refs. *)

val register_callback : t -> (Wire.value list -> unit) -> int
(** Register a guest closure; the returned id travels in place of a C
    function pointer, and server upcalls dispatch to the closure (in a
    fresh process). *)

val upcalls_received : t -> int

val fresh_handle : t -> int
(** Allocate a guest-managed object id (the server binds its host object
    to it) — how async enqueues return usable event handles. *)

val take_deferred_error : t -> (string * int) option
(** Pop the oldest pending async failure, if any: the §4.2 deferred-error
    channel, drained by the API glue on each synchronous call. *)

val pending_errors : t -> int

val set_defer_hook : t -> (seq:int -> unit) -> unit
(** Install a function that sees the seq of each asynchronous call
    whose failure enters the deferred-error channel, as it enters.  A
    synchronous call returns only once every failure below its seq has
    entered it, so each failure is reported no later than the next
    synchronous call.  At most one hook; a later one replaces it. *)

val late_failures : t -> int
(** Asynchronous failures that entered the deferred-error channel after
    a synchronous call with a higher seq had returned; 0 on a correct
    stack. *)

(** What {!invoke} answers. *)
type answer =
  | Forwarded  (** the plan forwarded the call; its reply goes to [on_reply] *)
  | Replied of Message.reply  (** the plan waited: the call's reply *)
  | No_plan of string
      (** the function has no plan: a local failure, nothing was sent *)

val invoke :
  ?on_reply:(Message.reply -> unit) ->
  t ->
  fn:string ->
  args:Wire.value list ->
  answer
(** Invoke [fn].  The plan alone decides synchrony; a conditional plan
    ([Sync_when_eq]) reads its condition from the scalar arguments
    ({!Plan.scalars}).  [on_reply] sees the reply either way.  A
    forwarded call whose plan leaves the reply unread
    ({!Plan.acknowledged}) gets none: the server's acknowledgement mark
    ({!Message.ack}) retires it, and [on_reply] then sees a success
    with no return value or outputs. *)
