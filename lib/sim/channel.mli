(** Bounded/unbounded FIFO channel between processes.

    [recv] blocks while empty; [send] blocks while a bounded channel is
    full, giving natural backpressure for command queues and rings. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Unbounded unless [capacity] (>= 1) is given. *)

val send : 'a t -> 'a -> unit
(** Blocking send; must run inside a process when the channel is full. *)

val recv : 'a t -> 'a
(** Blocking receive; must run inside a process when empty. *)

val try_recv : 'a t -> 'a option
