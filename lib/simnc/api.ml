(* The MVNC public API (NCSDK v1 subset): the stable surface of the
   Movidius silo.  10 entry points, matching the functions the AvA
   prototype para-virtualized for the Intel NCS. *)

open Types

module type S = sig
  val mvncGetDeviceName : index:int -> string result
  val mvncOpenDevice : name:string -> device_handle result
  val mvncCloseDevice : device_handle -> unit result

  val mvncAllocateGraph : device_handle -> graph_data:bytes -> graph_handle result
  val mvncDeallocateGraph : graph_handle -> unit result

  val mvncLoadTensor : graph_handle -> tensor:bytes -> unit result
  (** Queue an input tensor; inference proceeds asynchronously. *)

  val mvncGetResult : graph_handle -> bytes result
  (** Block until the oldest queued inference completes; returns its
      output tensor. *)

  val mvncGetGraphOption : graph_handle -> graph_option -> int result
  val mvncSetGraphOption : graph_handle -> graph_option -> int -> unit result
  val mvncGetDeviceOption : device_handle -> device_option -> int result
end
