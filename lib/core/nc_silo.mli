(** The AvA-generated remoting glue for MVNC (Movidius NCSDK): its
    guest library and its API server's handlers, from one declaration
    per function ({!Silo}). *)

type state
(** Per-VM server-side state: a private native MVNC stack. *)

val make_state : Ava_device.Ncs.t -> vm_id:int -> state
val create : Ava_remoting.Stub.t -> (module Ava_simnc.Api.S)
val register : state Ava_remoting.Server.t -> unit

val functions : unit -> (string * int option) list
(** Every function, with its wire width when declared. *)
