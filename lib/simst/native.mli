(** Native SimST stack over the simulated stream accelerator; one
    instance per host process, as with the other silos. *)

type st
(** Instance state (opaque). *)

val create : Device.t -> (module Api.S) * st

val live_streams : st -> int
val live_mems : st -> int

val find_mem : st -> Types.mem_handle -> Bytes.t option
(** Device storage behind an API memory handle — the migration
    snapshot's view. *)

val quiesce : st -> unit
(** Drain every stream; a migration must quiesce before snapshotting. *)
