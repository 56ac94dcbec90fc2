(** Discrete-event engine with effects-based cooperative processes.

    The engine is a min-heap of (virtual-time, callback) events.  A
    process is an OCaml function run under an effect handler: performing
    {!delay} suspends it and re-schedules its continuation later;
    {!park} suspends it in a wait queue until another event {!wake}s it
    with a value.  Every blocking primitive ([Channel], [Ivar],
    [Semaphore], the router's WFQ) is a wait queue underneath.
    Everything runs on one OS thread; runs are fully deterministic. *)

type t

exception Stalled of string
(** Raised by {!run_process} when the event queue drains while the
    process is still blocked. *)

val create : unit -> t

val now : t -> Time.t
(** The current virtual instant. *)

(** {1 Event scheduling} *)

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** Schedule a callback at an absolute instant (clamped to [now]).
    Same-instant callbacks fire in scheduling order. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> unit
(** Schedule a callback after a relative delay (clamped to 0). *)

(** {1 Processes}

    [delay] and [park] must be performed from inside a process body
    started with {!spawn} or {!run_process}. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a new process at the current instant. *)

val delay : Time.t -> unit
(** Suspend the calling process for a virtual duration. *)

(** {1 Park and wake}

    A parked process waits in a FIFO wait queue.  {!wake} unlinks the
    oldest one, so each park is woken exactly once, and resumes it with
    a value at the current instant through the same-instant ring: the
    wake takes the next sequence number, as {!schedule}[ ~at:(now t)]
    would, so the process runs after every event already scheduled for
    this instant and before any scheduled after the wake.  Parking and
    waking allocate nothing: each process owns one waiter record, made
    by {!spawn}, that the queue links. *)

type 'a waitq
(** A FIFO of processes parked until a {!wake} hands each an ['a]. *)

val waitq : unit -> 'a waitq

val park : 'a waitq -> 'a
(** Suspend the calling process at the tail of the queue and return the
    value its {!wake} hands over. *)

val wake : 'a waitq -> 'a -> unit
(** Resume the oldest parked process with a value.
    @raise Invalid_argument if no process is parked in the queue. *)

val parked : 'a waitq -> bool
(** Whether a process is parked in the queue. *)

(** {1 Running} *)

val run : ?until:Time.t -> t -> unit
(** Drain the event queue.  With [~until], stop once the next event lies
    beyond the horizon; the clock advances to the horizon (also when the
    queue is empty or drains early, and never backwards) and pending
    events remain for a later [run]. *)

val run_process : t -> (unit -> 'a) -> 'a
(** Spawn [body], run the engine to completion and return the body's
    result.
    @raise Stalled if the process never completed. *)

(** {1 Introspection} *)

val live_processes : t -> int
val spawned : t -> int

val events_executed : t -> int
(** Total events dispatched by {!run} since {!create} — the
    denominator for the simcore wall-clock metrics. *)
