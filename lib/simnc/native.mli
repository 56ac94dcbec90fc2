(** Native MVNC stack over the simulated stick: one instance (handle
    namespace) per host process, like SimCL's. *)

type st
(** Instance state (opaque). *)

val create : ?owned:bool -> Ava_device.Ncs.t -> (module Api.S) * st
(** [owned] (default [false]): the caller never writes an input
    payload again, so one a call keeps past its return is used in place
    instead of snapshotted.  Only an API server's silo instance owns
    its inputs (its request segments are frozen); a native caller may
    overwrite a non-blocking call's source at once. *)

val live_graphs : st -> int
