(* The AvA-generated remoting glue for MVNC (Movidius NCSDK). *)

module type S = Ava_simnc.Api.S

open Ava_simnc.Types
open Silo

type state = (module S)

let make_state ncs ~vm_id:_ = fst (Ava_simnc.Native.create ~owned:true ncs)

include Make (struct
  type error = status
  type nonrec state = state
  type api = (module S)

  let of_code = status_of_code and to_code = status_to_code
  let failure _ = General_error
  let api st = st
end)

let graph_option = [ (Graph_time_taken_us, 0); (Graph_executors, 1) ]
let device_option = [ (Device_thermal_throttle, 0); (Device_memory_used, 1) ]

let mvncGetDeviceName =
  fn1 "mvncGetDeviceName" [ A Int; Out; Const (i 64) ] (Ret Str)
    (fun (module NC) index -> NC.mvncGetDeviceName ~index)
let mvncOpenDevice =
  fn1 "mvncOpenDevice" [ A (Sized Str); Out ] (Fresh [])
    (fun (module NC) name -> NC.mvncOpenDevice ~name)
let mvncCloseDevice =
  on_handle "mvncCloseDevice" (fun (module NC) -> NC.mvncCloseDevice)
let mvncAllocateGraph =
  fn2 "mvncAllocateGraph" [ A Handle; Out; B (Sized Blob) ] (Fresh [])
    (fun (module NC) d graph_data -> NC.mvncAllocateGraph d ~graph_data)
let mvncDeallocateGraph =
  on_handle "mvncDeallocateGraph" (fun (module NC) -> NC.mvncDeallocateGraph)
(* The NCSDK's own pipelining call: forwarded asynchronously. *)
let mvncLoadTensor =
  fn2 "mvncLoadTensor" [ A Handle; B (Sized Blob) ] Done
    (fun (module NC) g tensor -> NC.mvncLoadTensor g ~tensor)
let mvncGetResult =
  fn1 "mvncGetResult" [ A Handle; Out; Const (i (1 lsl 20)) ]
    (Ret (Sized Blob)) (fun (module NC) -> NC.mvncGetResult)
let mvncGetGraphOption =
  fn2 "mvncGetGraphOption" [ A Handle; B (Enum graph_option); Out ]
    (Ret Int) (fun (module NC) -> NC.mvncGetGraphOption)
(* Async in the spec: a refused option surfaces at the next
   synchronous call. *)
let mvncSetGraphOption =
  fn3 "mvncSetGraphOption" [ A Handle; B (Enum graph_option); C Int ]
    Done (fun (module NC) -> NC.mvncSetGraphOption)
let mvncGetDeviceOption =
  fn2 "mvncGetDeviceOption" [ A Handle; B (Enum device_option); Out ]
    (Ret Int) (fun (module NC) -> NC.mvncGetDeviceOption)

let create stub =
  let module M = struct
    let mvncGetDeviceName ~index = call1 stub mvncGetDeviceName index
    let mvncOpenDevice ~name = call1 stub mvncOpenDevice name
    let mvncCloseDevice d = call1 stub mvncCloseDevice d

    let mvncAllocateGraph d ~graph_data = call2 stub mvncAllocateGraph d graph_data
    let mvncDeallocateGraph g = call1 stub mvncDeallocateGraph g
    let mvncLoadTensor g ~tensor = call2 stub mvncLoadTensor g tensor
    let mvncGetResult g = call1 stub mvncGetResult g
    let mvncGetGraphOption g opt = call2 stub mvncGetGraphOption g opt
    let mvncSetGraphOption g opt v = call3 stub mvncSetGraphOption g opt v
    let mvncGetDeviceOption d opt = call2 stub mvncGetDeviceOption d opt
  end in
  (module M : S)
