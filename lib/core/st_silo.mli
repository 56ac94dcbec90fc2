(** The AvA-generated remoting glue for SimST, the stream accelerator:
    its guest library and its API server's handlers, from one
    declaration per function ({!Silo}). *)

type state
(** Per-VM server-side state: a private native SimST stack. *)

val make_state : Ava_simst.Device.t -> vm_id:int -> state
val create : Ava_remoting.Stub.t -> (module Ava_simst.Api.S)
val register : state Ava_remoting.Server.t -> unit

val live : state Silo.live
(** Live objects are device memory ([stMemAlloc]), copied directly. *)

val functions : unit -> (string * int option) list
(** Every function, with its wire width when declared. *)
