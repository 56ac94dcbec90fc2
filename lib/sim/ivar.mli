(** Write-once cell: readers block until the value is set.

    The basic completion primitive: device interrupts, RPC replies and
    OpenCL events are all ivars underneath. *)

type 'a t

val create : unit -> 'a t

val is_filled : 'a t -> bool

val fill : 'a t -> 'a -> unit
(** Set the value and resume all waiting readers at the current instant,
    in registration order.
    @raise Invalid_argument if already filled. *)

val fill_if_empty : 'a t -> 'a -> unit
(** Like {!fill} but a no-op when already filled. *)

val peek : 'a t -> 'a option

val read : 'a t -> 'a
(** Return the value, blocking the calling process until filled.  Must
    run inside a process when the ivar is still empty. *)
