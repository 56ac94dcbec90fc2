(** Counting semaphore for exclusive or limited-parallelism resources
    (DMA engines, compute units, USB links). *)

type t

val create : int -> t
(** [create n] with [n >= 1] slots, all initially available. *)

val available : t -> int

val release : t -> unit
(** Return a slot, waking the oldest waiter if any.
    @raise Invalid_argument on more releases than acquires. *)

val with_acquired : t -> (unit -> 'a) -> 'a
(** Run a function holding one slot; releases on exception too. *)
