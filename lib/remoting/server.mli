(** The API server: a non-privileged host process executing forwarded
    calls against the vendor silo.

    One worker process — and one ['st] silo instance — per VM gives the
    process-level isolation of §4.1: handles from one guest cannot
    denote another guest's objects.

    Handles on the wire are virtual ids; the per-VM {!Ctx} maps them to
    host objects, which is also the hook migration uses to re-bind ids
    after replay on a new host. *)

open Ava_sim

module Plan = Ava_codegen.Plan
module Transport = Ava_transport.Transport

(** Per-VM handle context. *)
module Ctx : sig
  type t

  val create : vm_id:int -> t
  val vm : t -> int

  val fresh : t -> int
  (** Allocate a server-assigned virtual id. *)

  val last_fresh : t -> int
  (** The most recently assigned virtual id (used by migration replay to
      re-bind objects to their original ids). *)

  val next_vid : t -> int
  (** The next virtual id {!fresh} would mint. *)

  val reserve : t -> int -> unit
  (** Advance the fresh-id counter to at least the given id.  A
      migration replaying into a fresh context must first reserve the
      source context's range ([reserve dst (next_vid src)]): replay
      mints a fresh id per re-created object before re-binding it to
      its original id, and an unreserved counter mints ids colliding
      with originals already re-bound — silently overwriting a binding
      a guest-held handle still depends on. *)

  val bind : t -> guest:int -> host:int -> unit
  val resolve : t -> int -> int option

  val find : t -> int -> int
  (** {!resolve} without the option; raises [Not_found] for an unbound
      id. *)

  val reverse : t -> host:int -> int option
  val forget : t -> int -> unit
end

type 'st handler =
  Ctx.t -> 'st -> Wire.value list -> int * Wire.value * Wire.value list
(** A handler executes one API function against the per-VM context and
    silo state, returning (status, return-value, out-values).

    Payload ownership, both ways by reference:
    - A page-sized argument payload is the request's own segment, which
      the record log, the content store and a replayed copy of the
      frame share: a handler never mutates an argument payload.
      Nothing else writes it either, so the silo may keep it past the
      call uncopied (a device write reads it when its DMA runs).
    - The reply refers to each payload a handler returns without
      copying it, and the reply log keeps it for replays: each must be
      a fresh buffer that nothing writes again. *)

type cache_stats = {
  cs_hits : int;  (** refs resolved from the store *)
  cs_misses : int;  (** refs that missed (each triggers a NAK digest) *)
  cs_insertions : int;
  cs_evictions : int;
  cs_resident_bytes : int;
  cs_saved_bytes : int;  (** payload bytes served from the store *)
  cs_rejected : int;  (** announces whose digest didn't verify *)
}
(** Counters of the per-VM content store (server half of the transfer
    cache). *)

type 'st vm_entry
type 'st t

(** {1 Remoting-level status codes} (disjoint from API error codes) *)

val status_ok : int
val status_unknown_function : int
val status_bad_arguments : int
val status_unknown_handle : int

val status_timeout : int
(** Synthesized by the guest stub when a call exhausts its retry budget
    (never sent by the server itself). *)

val status_device_lost : int
(** The device was lost under this call (hung kernel, TDR reset, USB
    unplug); the silo survives and later calls may succeed again. *)

val status_vm_quarantined : int
(** Synthesized by the router for calls rejected while their VM is
    quarantined by the circuit breaker (never sent by the server). *)

(** {1 Handler exception protocol}

    Handlers raise these to signal the corresponding reply statuses;
    any other exception escaping a handler is counted in
    {!unexpected_exns} (a server-side bug, not a guest error). *)

exception Unknown_handle
exception Bad_args
exception Device_lost

(** TDR watchdog configuration: a dispatched call whose handler has not
    returned after [tdr_factor] times its spec resource estimate
    (floored at [tdr_min_ns]) triggers [tdr_reset] and fails with
    {!status_device_lost}.  The reply enters the normal reply log, so
    retransmitted duplicates replay the same error.

    [tdr_wedged_by] (optional) names the client currently wedging the
    shared device, directing blame: a call stuck {e behind} another
    client's wedge triggers the reset but survives and completes
    normally once the device recovers; only the culprit's call fails.
    Without the query every timeout is blamed on its own call. *)
type tdr = {
  tdr_factor : float;
  tdr_min_ns : Time.t;
  tdr_reset : vm_id:int -> unit;
  tdr_wedged_by : (unit -> int option) option;
}

val create :
  ?cache_capacity:int ->
  ?tdr:tdr ->
  ?obs:Ava_obs.Obs.t ->
  ?device_id:int ->
  Engine.t ->
  plan:Plan.t ->
  make_state:(vm_id:int -> 'st) ->
  'st t
(** [make_state] builds one fresh silo instance per attached VM.
    [cache_capacity] bounds each VM's content store in payload bytes
    (default 0: transfer cache off, behaviour byte-identical to the
    pre-cache stack).  [tdr] arms the timeout-detection-and-recovery
    watchdog (default off; armed, each reset bumps {!tdr_resets}).
    [device_id] names the pool device this server fronts (default -1:
    unpooled).  A pooled server keeps a migration record log
    ({!recorder}) in each VM's entry; when [obs] is armed, its executed
    calls also stamp their span with the device for per-device
    attribution. *)

val register : 'st t -> string -> 'st handler -> unit

val set_call_hook : 'st t -> (vm_id:int -> status:int -> Message.call -> unit) -> unit
(** Observe every executed call, migration replay included.  The hook
    is an observer only: one slot, replaced by the next call, and
    nothing in the stack depends on it — the record log is kept by the
    VM's entry ({!recorder}). *)

val executed : 'st t -> int
val rejected : 'st t -> int

val replay_cache_cap : int
(** Depth of the per-VM reply log: {!Seqwin.horizon}.  Each VM's entry
    keeps its parked calls, skip notices and sent replies in one seq
    window around its in-order cursor, and a replied seq stays
    answerable until the window's base passes it, this far behind the
    newest seq the entry has seen — the same rule, on the same depth, as
    the router's window, so a copy the router forwards finds its reply
    (see {!Seqwin}).  A call with a negative seq, or one at least
    {!Seqwin.max_span} past the cursor, is dropped and counted in
    {!rejected}. *)

val ack_bound : int
(** How many successful asynchronous calls whose plan leaves the reply
    unread ({!Plan.acknowledged}) may execute unacknowledged before the
    server sends an acknowledgement ({!Message.ack}) at once: 32.  The
    mark also rides on every reply, and goes out before a skip notice
    moves the cursor past unacknowledged executions, so a long run of
    policed-away seqs never carries it beyond the span a frame names
    failures in ({!Message.failure_span}). *)

val ack_idle_ns : Time.t
(** How long no call of a VM may finish executing, with some
    unacknowledged, before the server acknowledges them: 200 µs, far
    below any watchdog timeout, so a resend for an acknowledged call is
    rare.  A fixed interval, not a knob. *)

val replayed : 'st t -> int
(** Duplicate seqs answered without re-executing (idempotent replay):
    from the per-VM reply log, or, for an acknowledged seq, by an
    acknowledgement — by a success reply of its own (not logged) when
    the seq lies more than {!Message.failure_span} below the mark, where
    no mark retires it. *)

val restarts : 'st t -> int
val lost_while_down : 'st t -> int
(** Messages that arrived while their VM's worker was crashed. *)

val naks_sent : 'st t -> int
(** Cache-miss NAK messages sent to guests. *)

val tdr_resets : 'st t -> int
(** Device resets triggered by the TDR watchdog. *)

val device_lost : 'st t -> int
(** Calls failed with {!status_device_lost} (watchdog timeouts plus
    handlers raising {!Device_lost}). *)

val unexpected_exns : 'st t -> int
(** Handler exceptions outside the known protocol set — genuine bugs
    surfaced instead of masquerading as guest errors. *)

val cache_capacity : 'st t -> int
(** The per-VM content-store bound this server was created with. *)

val cache_stats : 'st t -> vm_id:int -> cache_stats option
val cache_totals : 'st t -> cache_stats
(** Content-store counters for one VM / summed over all attached VMs. *)

val sum_cache_stats : cache_stats list -> cache_stats
(** Field-wise sum; all zero for [[]]. *)

val flush_cache : 'st t -> vm_id:int -> unit
(** Empty the VM's content store (used by migration; the guest's stale
    refs then miss and heal through the NAK/resend path).  A crashed
    server's {!restart} flushes implicitly: the store is front-end
    process memory. *)

(** {1 Shared virtual addressing}

    With SVA armed for a VM, [Wire.Mapped_ref] arguments in its calls
    resolve to the pinned guest pages through the VM's IOMMU before
    dispatch; one scatter-gather descriptor chain per call charges the
    descriptor setup and per-page IOTLB walk to the device's DMA engine
    (no bandwidth — the payload streams on the handler's ordinary DMA
    path).  A reference that fails translation consumes the call with
    {!status_bad_arguments} — never a NAK, which could not heal it.
    The pairing lives in the VM's entry: {!set_sva} and {!clear_sva}
    raise [Invalid_argument] for an unattached VM, and {!detach_vm}
    drops it. *)

val set_sva :
  'st t -> vm_id:int -> iommu:Ava_device.Iommu.t -> dma:Ava_device.Dma.t -> unit

val clear_sva : 'st t -> vm_id:int -> unit
val sva_for : 'st t -> vm_id:int -> (Ava_device.Iommu.t * Ava_device.Dma.t) option

val sva_resolutions : 'st t -> int
(** Calls in which at least one mapped-buffer ref resolved. *)

val sva_resolved_bytes : 'st t -> int
val sva_rejected : 'st t -> int
(** Calls consumed with {!status_bad_arguments} on a bad mapped ref. *)

val attach_vm : 'st t -> vm_id:int -> ep:Transport.endpoint -> 'st vm_entry
(** Spawn the VM's worker process draining [ep].  Per-VM calls execute
    strictly in seq order: a late (retransmitted) or early (reordered)
    seq parks until the gap before it fills — via retransmission or a
    router {!Message.Skip} notice — and seqs already executed replay
    their cached reply, or an acknowledgement, without touching the
    silo. *)

val detach_vm : 'st t -> vm_id:int -> unit
(** Drop the VM's entry — with its reply log, content store, record log
    and SVA pairing — and terminate its worker at the next wakeup.
    Migration away from a server must detach the source residency, or a
    later migration back would leave two workers racing for the same
    VM's inbox.  {!attach_vm} of an already-attached VM detaches the
    stale entry implicitly. *)

val crash : 'st t -> vm_id:int -> unit
(** Take the VM's worker down: every message that arrives until
    {!restart} is lost.  Silo state and the reply log survive; in-flight
    calls are recovered by stub retransmission and router requeue. *)

val restart : 'st t -> vm_id:int -> unit
val is_crashed : 'st t -> vm_id:int -> bool

val lose_failure_replies : 'st t -> vm_id:int -> unit
(** Fault injection: from now on the VM's failed asynchronous calls are
    acknowledged as successes, with no failure reply.  The broken server
    the campaign's deferred-errors invariant must catch. *)

val export_replies : 'st t -> vm_id:int -> (int * Message.reply) list
(** Snapshot the VM's reply log — the replied cells of its seq window,
    at most {!replay_cache_cap} of them — seq-sorted.  It holds only the
    replies the server sent: a successful asynchronous call whose plan
    leaves its reply unread ({!Plan.acknowledged}) is acknowledged by
    the mark ({!Message.ack}), and its cell holds no reply. *)

val recorder : 'st t -> vm_id:int -> Migrate.t option
(** The VM's migration record log: every successful live call, filed by
    its spec'd record class ({!Migrate.observe}).  Armed iff the server
    fronts a pool device; [None] otherwise or for an unattached VM. *)

val hand_over_log : 'st t -> into:'st t -> vm_id:int -> unit
(** Move the VM's record log from this server's entry into its entry on
    [into]: from here on the destination records the VM's calls and
    this server does not.  Migration calls it after snapshotting the
    source, before replaying the log.
    @raise Invalid_argument when either entry is missing or this one
    keeps no log. *)

val hand_over : 'st t -> into:'st t -> vm_id:int -> unit
(** The rest of a migration's server-side state.  Seed the VM's
    in-order cursor on [into] from this server's: replayed log entries
    run with seq 0, outside the live window, so the destination must be
    told where the guest's live seq stream resumes.  A cursor passes a
    call only once its reply is logged, so it resumes at the first seq
    this server has not answered; a call still executing here runs
    again at the destination (at-least-once only for calls this server
    had not answered).  Carry the replied cells over: every seq below
    the cursor can only be answered from this log — a reply lost on the
    guest link just before the move is otherwise unhealable at the
    destination.  Acknowledged cells come along too, with the failed
    seqs the mark names and the executions not yet acknowledged, so
    [into] answers a resend of an acknowledged seq with an
    acknowledgement.  [into]'s seq window becomes this server's, from
    its base up to the cursor: seqs [into] already answered keep their
    answer, and nothing [into] parked survives. *)

val pause_vm : 'st t -> vm_id:int -> unit
(** Stall the worker before its next call (migration §4.3). *)

val resume_vm : 'st t -> vm_id:int -> unit

val vm_ctx : 'st t -> vm_id:int -> Ctx.t option
val vm_state : 'st t -> vm_id:int -> 'st option

val upcall : 'st t -> vm_id:int -> cb:int -> args:Wire.value list -> unit
(** Invoke a guest callback by sending an upcall message over the VM's
    endpoint.  Must run inside a process. *)

val execute_direct :
  'st t -> vm_id:int -> Message.call -> int * Wire.value * Wire.value list
(** Execute a call directly against a VM's state, bypassing transport
    and the record log — used by migration replay.  Must run inside a
    process. *)
