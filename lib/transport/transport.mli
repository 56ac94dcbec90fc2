(** Pluggable message transports.

    A transport moves opaque byte messages between two parties under a
    configurable cost model.  A message is an iovec, a [bytes array]
    whose concatenation is its bytes: a sender hands over segments it
    already holds (a frame's head and its page-sized payloads) and the
    receiver gets the same segments, uncopied.  Costs, counters and
    doorbells read the summed length, so how a message is cut never
    changes its timing.  AvA's guest library, router and API server
    are connected by pairs of endpoints.  Endpoints are symmetric values,
    so topologies are free: guest↔router↔server for hypervisor-interposed
    remoting, guest↔server for vCUDA-style user-space RPC, or
    guest↔remote-server for disaggregation. *)

open Ava_sim

(** Per-direction cost model. *)
type cost = {
  per_msg_ns : Time.t;  (** sender-side fixed cost (descriptor, kick) *)
  bytes_per_s : float;  (** sender-side streaming cost *)
  deliver_ns : Time.t;
      (** in-flight latency (notification/interrupt/network); deliveries
          pipeline, so back-to-back messages overlap their latency *)
}

val free_cost : cost

type stats = {
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
}

type endpoint

(** One outgoing message may fan out into zero (dropped), one, or several
    (duplicated) deliveries, each optionally delayed further. *)
type delivery = { d_payload : bytes array; d_extra_ns : Time.t }

val set_send_hook : endpoint -> (bytes array -> delivery list) option -> unit
(** Interpose on this endpoint's send path: the hook maps each outgoing
    message to the deliveries that actually reach the peer ([[]] drops
    it).  Sender-side costs are charged exactly as without a hook; extra
    delays never reorder deliveries (FIFO link semantics).  [None]
    (the default) restores the bit-identical hook-free path.  Used by
    {!Faults}. *)

val set_recv_hook : endpoint -> (bytes array -> bytes array option) option -> unit
(** Interpose on this endpoint's receive path; returning [None] discards
    the message (e.g. a failed checksum) and keeps waiting. *)

(** {1 Doorbell coalescing}

    Virtio event-suppression-style notify batching for ring transports,
    where the dominant per-message cost is the notify ([deliver_ns], a
    hypercall-plus-interrupt round).  With a doorbell armed on an
    endpoint, a slot written while the peer is still draining earlier
    slots — or within the [db_poll_ns] grace window the peer keeps
    polling after its last drained slot before re-arming the interrupt
    (NAPI / virtio EVENT_IDX adaptive polling) — needs no notify at
    all: the drain or the poll picks it up [db_slot_ns] after the slot
    before it.  Otherwise slots accumulate behind one notify, rung when
    [db_batch] slots are pending, when the oldest has waited
    [db_horizon_ns], or immediately for a [~kick:true] send. *)

type doorbell_cfg = {
  db_horizon_ns : Time.t;  (** max time the oldest pending slot waits *)
  db_batch : int;  (** pending-slot count forcing an immediate flush *)
  db_slot_ns : Time.t;  (** peer-side per-slot drain spacing *)
  db_poll_ns : Time.t;
      (** adaptive-poll grace past the last drained slot during which
          sends ride along without a notify *)
}

val default_doorbell : doorbell_cfg
(** 800 ns horizon, 8-slot batch, 100 ns/slot drain, 25 µs poll
    grace. *)

val set_doorbell : ?cfg:doorbell_cfg -> endpoint -> unit
(** Arm doorbell coalescing on this endpoint's send direction.  An
    endpoint with a send hook ({!Faults}) ignores its doorbell: fault
    injection owns the delivery schedule. *)

val doorbell_armed : endpoint -> bool

val db_notifies : endpoint -> int
(** Doorbells actually rung (each covers a whole batch). *)

val db_suppressed : endpoint -> int
(** Sends that rode an in-progress drain with no notify at all. *)

val db_forced_flushes : endpoint -> int
(** Flushes forced by the batch cap rather than kick or horizon. *)

val db_pending : endpoint -> int
(** Slots currently waiting behind the armed horizon. *)

val length : bytes array -> int
(** A message's length: the sum of its segments'. *)

val send :
  ?kick:bool -> ?on_scheduled:(Time.t -> unit) -> endpoint -> bytes array -> unit
(** Blocking send toward the peer; must run inside a process.
    [kick] (doorbell-armed endpoints only) flushes every pending slot
    plus this one behind a single immediate notify — synchronous calls
    use it, since their caller is already committed to a round trip.
    [on_scheduled] fires, only on doorbell-armed endpoints, at the
    virtual time the message's delivery is committed (its batch's flush,
    or the suppressed ride-along decision) — the stub uses it to stamp
    the doorbell-wait phase boundary. *)

val recv : endpoint -> bytes array
(** Blocking receive; must run inside a process. *)

val stats : endpoint -> stats

val duplex : Engine.t -> a_to_b:cost -> b_to_a:cost -> endpoint * endpoint
(** Build a bidirectional link; returns the two ends. *)

(** {1 Canned transports} *)

val direct : Engine.t -> endpoint * endpoint
(** In-process, cost-free: unit tests and host-internal hops. *)

val shm_ring : Engine.t -> virt:Ava_device.Timing.virt -> endpoint * endpoint
(** Hypervisor-managed shared-memory ring (SVGA-style FIFO): the
    interposable transport AvA prefers.  Zero-copy for bulk payloads. *)

val user_rpc : Engine.t -> virt:Ava_device.Timing.virt -> endpoint * endpoint
(** User-space RPC that bypasses the hypervisor (vCUDA/rCUDA-style);
    pays real copy costs. *)

val network : Engine.t -> virt:Ava_device.Timing.virt -> endpoint * endpoint
(** Network transport to a disaggregated API server (LegoOS-style). *)

type kind = Direct | Shm_ring | User_rpc | Network

val kind_to_string : kind -> string
val make : kind -> Engine.t -> virt:Ava_device.Timing.virt -> endpoint * endpoint
