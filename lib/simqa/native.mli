(** Native SimQA stack over the simulated QAT card; one instance per
    host process, as with the other silos. *)

type st
(** Instance state (opaque). *)

val create : Device.t -> (module Api.S) * st

val live_sessions : st -> int
