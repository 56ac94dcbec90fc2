(** Discrete-event engine with effects-based cooperative processes.

    The engine is a min-heap of (virtual-time, callback) events.  A
    process is an OCaml function run under an effect handler: performing
    {!delay} suspends it and re-schedules its continuation later;
    {!await} suspends it until another event invokes the resume callback
    handed to its registration function.  Everything runs on one OS
    thread; runs are fully deterministic. *)

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

    [delay], [await] and [yield] must be performed from inside a process
    body started with {!spawn} or {!run_process}. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a new process at the current instant. *)

val delay : Time.t -> unit
(** Suspend the calling process for a virtual duration. *)

val await : (('a -> unit) -> unit) -> 'a
(** [await register] suspends the calling process; [register] receives a
    resume callback that, when invoked (exactly once, at any later
    virtual time), resumes the process with the given value. *)

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
