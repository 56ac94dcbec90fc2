(** The AvA-generated remoting glue for SimCL, from one declaration per
    function ({!Silo}): the guest library that implements the full
    {!Ava_simcl.Api.S} over a stub — what a guest application links
    against instead of the vendor library — and the API server's
    handlers, which run each call against the VM's private native SimCL
    instance (process isolation).  Object-creating calls return
    server-assigned virtual ids; event out-parameters are guest-assigned
    ids, so asynchronously forwarded enqueues hand back a usable handle
    at once; async failures surface at the next synchronous call
    (§4.2). *)

type state
(** Per-VM server-side state: a private native SimCL stack. *)

val make_state :
  ?swap:Ava_remoting.Swap.t -> Ava_simcl.Kdriver.t -> vm_id:int -> state
(** With [swap], buffers are swapped at allocation granularity (§4.3). *)

val create : Ava_remoting.Stub.t -> (module Ava_simcl.Api.S)
val register : state Ava_remoting.Server.t -> unit

val forget_swap : Ava_remoting.Swap.t -> vm_id:int -> unit
(** Drop every swap entry the VM's buffers hold in this manager: the VM
    left the device the manager serves. *)

val live : state Silo.live
(** Live objects are device buffers ([clCreateBuffer]), read and written
    over the owning device's DMA path. *)

val functions : unit -> (string * int option) list
(** Every function, with its wire width when declared. *)
