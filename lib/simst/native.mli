(** Native SimST stack over the simulated stream accelerator; one
    instance per host process, as with the other silos. *)

type st
(** Instance state (opaque). *)

val create : ?owned:bool -> Device.t -> (module Api.S) * st
(** [owned] (default [false]): the caller never writes an input
    payload again, so one a call keeps past its return is used in place
    instead of snapshotted.  Only an API server's silo instance owns
    its inputs (its request segments are frozen); a native caller may
    overwrite a non-blocking call's source at once. *)

val live_streams : st -> int
val live_mems : st -> int

val find_mem : st -> Types.mem_handle -> Bytes.t option
(** Device storage behind an API memory handle — the migration
    snapshot's view. *)

val quiesce : st -> unit
(** Drain every stream; a migration must quiesce before snapshotting. *)
