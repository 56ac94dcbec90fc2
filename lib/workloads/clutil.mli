(** Small helpers shared by the SimCL workloads: session setup, buffer
    and kernel plumbing, with API errors turned into exceptions. *)

open Ava_simcl.Types

exception Api_failure of string

val ok : 'a result -> 'a
(** @raise Api_failure on [Error]. *)

type session = {
  cl : (module Ava_simcl.Api.S);
  device : device_id;
  context : context;
  queue : command_queue;
}

val open_session : (module Ava_simcl.Api.S) -> session
val close_session : session -> unit

val build_kernels : session -> (string * float * float) list -> kernel list
(** Build a program of synthetic kernels
    [(name, flops_per_item, bytes_per_item)], returning handles in
    order. *)

val buffer : session -> int -> mem
val write : ?blocking:bool -> session -> mem -> bytes -> unit
val read : session -> mem -> size:int -> bytes
(** Blocking read from offset 0. *)

val set_arg : session -> kernel -> int -> kernel_arg -> unit
val launch : session -> kernel -> global:int -> local:int -> unit
val finish : session -> unit

val vec_add :
  (module Ava_simcl.Api.S) -> n:int -> launches:int -> release:bool -> bool
(** The reference vec-add pipeline: upload two int32 vectors of [n]
    elements, enqueue [launches] vec_add kernels, read back and return
    whether the device computed the right sums.  With [release], every
    object it created is released before returning; without, they stay
    live.
    @raise Api_failure on any CL error. *)
