(** Per-call latency attribution for the remoting path.

    A span is opened when the guest stub accepts a call and closed when
    the reply (or a synthesized failure) reaches the caller.  The stub,
    router and server stamp {!type-mark}s on the live span; closing it
    slices the open→close interval into {!type-phase} durations which
    feed per-(VM × API × phase) log-bucketed histograms ({!Hist}).

    The registry is purely passive: it never calls [Engine.delay] or
    otherwise touches virtual time, so arming it leaves the simulation
    timing bit-identical to a disarmed run. *)

open Ava_sim

(** One slice of a forwarded call's life, in pipeline order. *)
type phase =
  | P_marshal  (** guest-side argument marshalling *)
  | P_stub_queue  (** waiting in the stub batch / hold queue *)
  | P_doorbell
      (** waiting for the coalesced ring doorbell to be rung (only
          stamped when the transport's doorbell batching is armed) *)
  | P_transport  (** guest → router hop *)
  | P_router_queue  (** router policing + WFQ wait *)
  | P_server_queue  (** router → server hop + dispatch overhead *)
  | P_execute  (** device execution under the handler *)
  | P_reply_transport  (** server → guest reply hop *)
  | P_unmarshal  (** guest-side reply decode + wakeup *)

val phase_name : phase -> string

(** Timestamps stamped by the stack; each ends one phase.  Marks are
    first-write-wins so watchdog resends cannot rewind a span, and any
    missing mark folds its phase into the next stamped one. *)
type mark =
  | M_marshal_done
  | M_sent
  | M_doorbell
  | M_router_in
  | M_dispatched
  | M_exec_start
  | M_exec_end
  | M_reply_recv

type span = {
  sp_vm : int;
  sp_seq : int;
  sp_fn : string;
  sp_open : Time.t;
  sp_marks : Time.t array;  (** indexed by mark; -1 = never stamped *)
  mutable sp_close : Time.t;  (** -1 while still open *)
  mutable sp_status : int;
  mutable sp_device : int;
      (** pool device that executed the call; -1 on a pool-less host *)
}

val mark_index : mark -> int
val mark_phase : mark -> phase

type t

val create : ?retain:int -> unit -> t
(** [retain] bounds how many closed spans are kept for trace export
    (default 65536, oldest dropped first; [0] keeps none).  Their
    storage grows with the spans actually retained. *)

(** {1 Span lifecycle} *)

type vm
(** One VM's spans.  The stub, router and server each take their VM's
    handle once, at attach, so stamping a span is an array index and a
    compare, not a registry lookup. *)

val vm : t -> vm:int -> vm
(** The VM's handle, created on first request. *)

val vm_span_open : vm -> seq:int -> fn:string -> at:Time.t -> unit
(** No-op if a span for [seq] is already live (e.g. a retry). *)

val vm_mark : vm -> seq:int -> mark -> at:Time.t -> unit
(** No-op on unknown spans and on already-stamped marks. *)

val vm_set_device : vm -> seq:int -> device:int -> unit
(** Attribute the live span to a pool device.  First write wins, like
    marks; no-op on unknown spans. *)

val vm_span_close : vm -> seq:int -> status:int -> at:Time.t -> unit
(** Records phase durations and the end-to-end total, then retains the
    span.  No-op on unknown spans. *)

val vm_span_ack : vm -> seq:int -> at:Time.t -> unit
(** Close an acknowledged call's span, a success: at its [M_exec_end]
    stamp when it has one, recording no reply or unmarshal phase (no
    reply travels back, and the acknowledgement's delay is not the
    call's); at [at], as {!vm_span_close} does, otherwise. *)

val forget_vm : t -> vm:int -> unit
(** Drop the VM's open spans without closing them: a retired VM's
    spans never close.  Its closed spans and histograms stay, and its
    handle stays usable. *)

(** {1 Gauges} *)

val in_flight : t -> int
(** Number of currently-open spans. *)

val vm_in_flight : t -> vm:int -> int
(** Number of currently-open spans of one VM. *)

val spans_opened : t -> int
val spans_closed : t -> int
val spans_failed : t -> int
(** Spans closed with a non-zero status. *)

val retain_dropped : t -> int

(** {1 Read-out} *)

val spans : t -> span list
(** Retained closed spans, oldest first. *)

val series : t -> ((int * string * phase) * Hist.summary) list
(** Per-(vm, api, phase) summaries, deterministically sorted. *)

val raw_series : t -> ((int * string * phase) * Hist.t) list
(** Same order as {!series} but exposing the live histograms, for
    exporters that need bucket counts. *)

val totals : t -> ((int * string) * Hist.summary) list
(** Per-(vm, api) end-to-end summaries, deterministically sorted. *)

val raw_totals : t -> ((int * string) * Hist.t) list

val phase_summaries : t -> (string * Hist.summary) list
(** Summaries merged across VMs and APIs, one per phase with samples,
    named by {!phase_name}, in pipeline order. *)

val total_summary : t -> Hist.summary
(** End-to-end summary merged across VMs and APIs. *)

val vm_totals : t -> (int * Hist.summary) list
(** Per-VM end-to-end summaries merged across APIs, sorted by vm id —
    the per-tenant latency read-out (cluster p50/p99 reporting). *)
