(** Native MVNC stack over the simulated stick: one instance (handle
    namespace) per host process, like SimCL's. *)

type st
(** Instance state (opaque). *)

val create : Ava_device.Ncs.t -> (module Api.S) * st

val live_graphs : st -> int
