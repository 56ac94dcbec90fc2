(** The AvA-generated API server dispatch for SimCL.

    Each handler unmarshals one function's arguments (layout mirrors
    {!Cl_remote}), resolves virtual ids through the per-VM context, runs
    the call against that VM's private native SimCL instance (process
    isolation), and marshals the reply.  Optional buffer-granularity
    swapping hooks allocation, use and release of memory objects. *)

(** Per-VM server-side state: a private native SimCL stack. *)
type state = {
  api : (module Ava_simcl.Api.S);
  native : Ava_simcl.Native.st;
  swap : Ava_remoting.Swap.t option;
}

val make_state :
  ?swap:Ava_remoting.Swap.t -> Ava_simcl.Kdriver.t -> vm_id:int -> state

val forget_swap : Ava_remoting.Swap.t -> vm_id:int -> unit
(** Drop every swap entry the VM's buffers hold in this manager: the VM
    left the device the manager serves. *)

val live : state Silo.live
(** Live objects are device buffers ([clCreateBuffer]), read and written
    over the owning device's DMA path. *)

val register : state Ava_remoting.Server.t -> unit
(** Install all 39 handlers. *)
