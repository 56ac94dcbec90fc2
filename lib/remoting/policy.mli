(** Resource-management policies enforced by the router (§4.3 of the
    paper): token-bucket rate limiting, weighted fair queueing on
    estimated device time, and windowed device-time quotas. *)

open Ava_sim

module Token_bucket : sig
  type t

  val create : Engine.t -> rate_per_s:float -> burst:float -> t
  (** Starts full (the burst is free). *)

  val take : t -> float -> unit
  (** Block the calling process until the tokens are available, then
      consume them. *)

  val throttle_ns : t -> Time.t
  (** Total time spent throttled so far. *)
end

(** Weighted fair queueing with per-item finish tags (virtual time).
    Flows are VMs; item cost is the router's resource estimate for the
    forwarded call.  A flow is a handle held by its owner: the
    scheduler keeps no table of flows.  A pop costs O(backlogged
    flows), not O(flows). *)
module Wfq : sig
  type 'a t

  type 'a flow
  (** One flow of one scheduler: pass it only to the scheduler that
      added it. *)

  val create : unit -> 'a t

  val add_flow : 'a t -> flow_id:int -> weight:float -> 'a flow
  (** A new, empty flow.  [flow_id] breaks ties in {!pop_payload};
      the caller keeps ids unique among the scheduler's live flows. *)

  val set_weight : 'a t -> 'a flow -> weight:float -> unit
  (** Takes effect immediately: the flow's pending items are re-tagged
      in FIFO order under the new weight, as if freshly enqueued at the
      scheduler's current virtual time, so a backlogged flow does not
      keep draining at its old rate until the backlog clears. *)

  val flow_weight : 'a flow -> float
  (** The flow's current weight. *)

  val push : 'a t -> 'a flow -> cost:float -> 'a -> unit
  (** Enqueue one item; wakes the blocked popper, if any. *)

  val remove_flow : 'a t -> 'a flow -> ('a * float) list
  (** Remove the flow, returning its queued (payload, cost) items in
      FIFO order; they stop counting toward {!backlog}.  Used to
      re-steer a flow onto another scheduler instance, and to detach
      one. *)

  val pop_payload : 'a t -> 'a
  (** Remove the item with the smallest finish tag and return its
      payload, blocking the calling process while all flows are empty.
      Per-flow FIFO order is preserved.  Equal tags go to the flow with
      the lowest [flow_id].  At most one concurrent popper is
      supported. *)

  val backlog : 'a t -> int
end

(** Per-VM error-budget circuit breaker: [failure_threshold] fault
    replies within a sliding [cooldown_ns] window trip the breaker open;
    while open, new calls are rejected at admission.  After
    [cooldown_ns] the breaker half-opens and admits exactly one probe
    call — a clean reply closes it, another fault re-opens it.  The
    budget is windowed rather than consecutive so that the successful
    async acknowledgements interleaved with a guest's fault replies
    cannot mask a fault burst. *)
module Breaker : sig
  type state = Closed | Open | Half_open

  type config = { failure_threshold : int; cooldown_ns : Time.t }

  val default_config : config
  (** 3 failures within a 10 ms window; 10 ms cooldown. *)

  type t

  val create : Engine.t -> config -> t

  val state : t -> state
  (** Current state ([Open] lazily becomes [Half_open] once the cooldown
      has elapsed). *)

  val admit : t -> bool
  (** May this call proceed?  [Half_open] admits one probe at a time;
      refusals bump {!rejections}. *)

  val record_failure : t -> unit
  (** Feed a fault reply (device-lost, TDR reset) into the budget. *)

  val record_success : t -> unit
  (** Feed a clean reply; closes a half-open breaker. *)

  val reset : t -> unit
  (** Administrative clear: force the breaker closed. *)

  val trips : t -> int
  (** Transitions into [Open]. *)

  val rejections : t -> int
  (** Calls refused at admission. *)
end

(** Windowed budget: a VM may consume [budget] cost units per window;
    excess calls stall until the next window. *)
module Quota : sig
  type t

  val create : Engine.t -> window_ns:Time.t -> budget:float -> t

  val charge : t -> float -> unit
  (** Consume budget, blocking across window boundaries as needed.  A
      cost exceeding the whole window budget is admitted at a fresh
      window (overdrawing it), so an oversized call throttles to one
      per window rather than wedging the VM forever. *)
end
