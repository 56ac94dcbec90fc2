(** Native SimQA stack over the simulated QAT card; one instance per
    host process, as with the other silos. *)

type st
(** Instance state (opaque). *)

val create : ?owned:bool -> Device.t -> (module Api.S) * st
(** [owned] (default [false]): the caller never writes an input
    payload again, so one a call keeps past its return is used in place
    instead of snapshotted.  Only an API server's silo instance owns
    its inputs (its request segments are frozen); a native caller may
    overwrite a non-blocking call's source at once. *)

val live_sessions : st -> int
