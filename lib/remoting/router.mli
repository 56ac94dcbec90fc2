(** The invocation router: AvA's hypervisor-level interposition point.

    Every forwarded call crosses the router, which (a) {e verifies} it —
    the function must exist in the spec with the right argument count —
    (b) enforces per-VM policy (token-bucket rate limits and windowed
    device-time quotas), and (c) schedules competing VMs with weighted
    fair queueing on the spec's resource estimates, pacing dispatch by a
    deliberate {e under}-estimate of device time so an uncontended guest
    is never slowed (§4.3).

    Each call is admitted once: a retransmitted or resent copy is never
    verified, charged or queued again ({!dropped}, {!window}).

    This is exactly what vCUDA-style user-space RPC gives up: remove the
    router and interposition is gone. *)

open Ava_sim
open Ava_hv

module Plan = Ava_codegen.Plan
module Transport = Ava_transport.Transport

type vm_conn
type t

val create :
  ?obs:Ava_obs.Obs.t ->
  Engine.t ->
  virt:Ava_device.Timing.virt ->
  plan:Plan.t ->
  t
(** With [obs], the router stamps ingress and WFQ-dispatch marks on
    each call's span (passive; no timing impact). *)

val forwarded : t -> int
val rejected : t -> int

val requeued : t -> int
(** Messages re-pushed through the WFQ by {!requeue_in_flight}. *)

val quarantined : t -> int
(** Calls rejected at admission by an open circuit breaker (summed over
    all VMs). *)

val dropped : t -> int
(** Frames dropped unanswered (summed over all VMs): copies of calls
    still queued in the WFQ, and seqs outside their VM's seq window —
    below its base, or absurdly far past it. *)

val resteered : t -> int
(** Flows moved by {!transfer_flow}, counted once on each router
    involved. *)

val paced_ns : t -> Time.t
(** Cumulative scheduler pacing applied at dispatch. *)

val attach_vm :
  ?rate_per_s:float ->
  ?burst:float ->
  ?weight:float ->
  ?quota_cost:float ->
  ?quota_window:Time.t ->
  ?breaker:Policy.Breaker.config ->
  ?breaker_statuses:int list ->
  ?backend:int ->
  t ->
  Vm.t ->
  guest_side:Transport.endpoint ->
  server_side:Transport.endpoint ->
  vm_conn
(** Attach one VM between its guest-facing and server-facing endpoints.
    [backend] names the dispatch lane (pool device) the VM starts on
    (default 0, the lane every router is created with).
    Policy knobs: [rate_per_s]/[burst] arm an API-call rate limit;
    [weight] sets the WFQ share (default 1); [quota_cost] per
    [quota_window] arms a device-time budget; [breaker] arms a per-VM
    error-budget circuit breaker fed by replies whose status is in
    [breaker_statuses] (default [[Server.status_device_lost]]) —
    while open, the VM's calls are rejected at admission with
    {!Server.status_vm_quarantined} and never reach the WFQ, so other
    VMs' service is unperturbed.  {!breaker_info} reads its state,
    trips and rejections back. *)

(** {1 Administration interface (§4.3)} *)

val set_rate_limit : t -> vm_id:int -> rate_per_s:float -> burst:float -> unit
val clear_rate_limit : t -> vm_id:int -> unit
val set_weight : t -> vm_id:int -> weight:float -> unit
val set_quota : t -> vm_id:int -> budget:float -> window_ns:Time.t -> unit

val throttle_ns : t -> vm_id:int -> Time.t
(** Time the VM has spent rate-limit throttled. *)

(** Snapshot of one VM's circuit breaker for the admin interface. *)
type breaker_info = {
  bi_state : Policy.Breaker.state;
  bi_trips : int;
  bi_rejections : int;
  bi_fault_replies : int;
      (** fault-status replies (device-lost etc.) seen flowing back *)
}

val set_breaker : t -> vm_id:int -> Policy.Breaker.config -> unit
(** Arm (or re-arm) the VM's circuit breaker at runtime. *)

val breaker_info : t -> vm_id:int -> breaker_info option
(** Inspect the VM's breaker; [None] if no breaker is armed. *)

val clear_breaker : t -> vm_id:int -> unit
(** Administrative clear: force the VM's breaker closed (no-op when no
    breaker is armed). *)

val breaker_trips : t -> vm_id:int -> int

(** {1 Recovery (fault model)} *)

val requeue_in_flight : t -> vm_id:int -> int
(** Re-push every forwarded message of the VM that still owes replies —
    the recovery step after an API-server restart.  Seqs the server
    already executed are answered from its reply log (idempotent
    replay), so wholesale requeue is safe.  Returns the number of
    messages requeued. *)

val in_flight_calls : t -> vm_id:int -> int
(** Calls forwarded to the server whose replies have not yet flowed
    back. *)

val in_flight_seqs : t -> vm_id:int -> int list
(** The seqs behind {!in_flight_calls}, sorted — for diagnostics (a
    seq-ledger violation can name the parked calls). *)

val window : t -> vm_id:int -> int
(** Seqs the VM's seq window tracks, base through newest.  The base
    passes a seq once it is answered or rejected and
    {!Server.replay_cache_cap} behind the newest. *)

(** {1 Multi-backend steering (device pool)}

    Each backend is an independent dispatch lane — its own WFQ and its
    own pacing dispatcher — fronting one pool device's API server.
    Backend 0 exists from {!create}; a single-backend router is
    behaviourally identical to the pre-pool router. *)

val add_backend : t -> id:int -> unit
(** Register a new dispatch lane.  Raises [Invalid_argument] if [id]
    already exists. *)

val transfer_flow :
  t ->
  dst:t ->
  vm_id:int ->
  backend:int ->
  server_side:Transport.endpoint ->
  unit
(** Live-move the VM's flow onto [backend] of [dst], whose server the
    router reaches via [server_side] — the only way a flow changes
    backend.  [dst] is this router (a re-steer between lanes) or
    another router on the same engine (cluster-tier migration), in
    which case the whole connection — guest endpoint, seq window,
    policy objects — moves too and the VM's live ingress process
    follows it, so the guest keeps its stub, its transport and its seq
    stream.  WFQ backlog and in-flight calls are re-forwarded to the
    new lane, whose server resumes at the old server's cursor
    ({!Server.hand_over}): it answers calls the old server answered
    from the carried reply log and executes the rest (at-least-once
    only for calls the old server had not answered, the same contract
    as the restart/requeue path).  The rejected seqs the window still
    holds are re-sent as one skip notice (the server ignores those
    below its cursor), and future ingress steers to the new lane.  The
    old egress keeps draining residual replies harmlessly. *)
