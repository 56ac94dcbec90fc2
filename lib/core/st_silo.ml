(* The AvA-generated remoting glue for SimST.

   The stream API is where asynchronous forwarding earns its keep: the
   plan marks enqueue-shaped calls [async] and the ordering key keeps
   per-stream order on the wire, so the stub returns before the device
   has seen the work.  [sync_on] calls (stream/event synchronize, batch
   collect) ride the normal synchronous path — the server withholds the
   reply until the native call's completion point passes.  Stream
   ordering itself lives in the device model. *)

module type S = Ava_simst.Api.S

open Ava_simst.Types
open Silo

type state = { api : (module S); native : Ava_simst.Native.st }

let make_state dev ~vm_id:_ =
  let api, native = Ava_simst.Native.create ~owned:true dev in
  { api; native }

include Make (struct
  type error = status
  type nonrec state = state
  type api = (module S)

  let of_code = status_of_code and to_code = status_to_code
  let failure _ = St_fail
  let api st = st.api
end)

let create0 name run = fn0 name [ Out ] (Fresh []) run

let stDeviceGetCount =
  fn0 "stDeviceGetCount" [ Out ] (Ret Int)
    (fun (module ST) -> ST.stDeviceGetCount ())
let stStreamCreate =
  create0 "stStreamCreate" (fun (module ST) -> ST.stStreamCreate ())
let stStreamDestroy =
  on_handle "stStreamDestroy" (fun (module ST) -> ST.stStreamDestroy)
let stStreamSynchronize =
  on_handle "stStreamSynchronize" (fun (module ST) -> ST.stStreamSynchronize)
let stEventCreate =
  create0 "stEventCreate" (fun (module ST) -> ST.stEventCreate ())
let stEventDestroy =
  on_handle "stEventDestroy" (fun (module ST) -> ST.stEventDestroy)
let stEventRecord =
  fn2 "stEventRecord" [ A Handle; B Handle ] Done
    (fun (module ST) -> ST.stEventRecord)
let stEventSynchronize =
  on_handle "stEventSynchronize" (fun (module ST) -> ST.stEventSynchronize)
let stStreamWaitEvent =
  fn2 "stStreamWaitEvent" [ A Handle; B Handle ] Done
    (fun (module ST) -> ST.stStreamWaitEvent)
let stMemAlloc =
  fn1 "stMemAlloc" [ Out; A Int ] (Fresh [])
    (fun (module ST) size -> ST.stMemAlloc ~size)
let stMemFree = on_handle "stMemFree" (fun (module ST) -> ST.stMemFree)
(* The guest may reuse [src] the moment the call returns; the stub owns
   the snapshot (see [Stub.send_call]). *)
let stMemcpyHtoDAsync =
  fn3 "stMemcpyHtoDAsync" [ A Handle; B (Sized Blob); C Handle ] Done
    (fun (module ST) dst src s -> ST.stMemcpyHtoDAsync dst ~src s)
let stMemcpyDtoH =
  fn2 "stMemcpyDtoH" [ Out; A Int; B Handle ] (Ret Blob)
    (fun (module ST) size src -> ST.stMemcpyDtoH ~size src)
let stLaunchKernel =
  fn6 "stLaunchKernel"
    [ A Handle; B (Sized Str); C Handle; D Handle; E Handle; F Int ] Done
    (fun (module ST) s name a b out n ->
      ST.stLaunchKernel s ~name ~a ~b ~out ~n)
let stBatchSubmit =
  fn3 "stBatchSubmit" [ A Handle; B (Sized Blob); C Int; Out ] (Ret Int)
    (fun (module ST) s batch item_size -> ST.stBatchSubmit s ~batch ~item_size)
let stBatchCollect =
  fn3 "stBatchCollect" [ A Handle; B Int; Out; C Int ] (Ret Blob)
    (fun (module ST) s ticket size -> ST.stBatchCollect s ~ticket ~size)

(* Live-object accessors for migration: device memory, copied directly
   (the stream device model has no DMA path of its own). *)
let live =
  let find st host = Ava_simst.Native.find_mem st.native host in
  {
    Silo.alloc_fn = name stMemAlloc;
    size_arg = 1;
    quiesce = (fun st -> Ava_simst.Native.quiesce st.native);
    read = (fun st ~host ~size:_ -> Option.map Bytes.copy (find st host));
    write =
      (fun st ~host data ->
        Option.map
          (fun buf ->
            let len = Stdlib.min (Bytes.length data) (Bytes.length buf) in
            Bytes.blit data 0 buf 0 len;
            len)
          (find st host));
  }

let create stub =
  let module M = struct
    let stDeviceGetCount () = call0 stub stDeviceGetCount ()
    let stStreamCreate () = call0 stub stStreamCreate ()
    let stStreamDestroy s = call1 stub stStreamDestroy s
    let stStreamSynchronize s = call1 stub stStreamSynchronize s
    let stEventCreate () = call0 stub stEventCreate ()
    let stEventDestroy ev = call1 stub stEventDestroy ev
    let stEventRecord ev s = call2 stub stEventRecord ev s
    let stEventSynchronize ev = call1 stub stEventSynchronize ev
    let stStreamWaitEvent s ev = call2 stub stStreamWaitEvent s ev
    let stMemAlloc ~size = call1 stub stMemAlloc size
    let stMemFree m = call1 stub stMemFree m
    let stMemcpyHtoDAsync dst ~src s = call3 stub stMemcpyHtoDAsync dst src s
    let stMemcpyDtoH ~size src = call2 stub stMemcpyDtoH size src

    let stLaunchKernel s ~name ~a ~b ~out ~n =
      call6 stub stLaunchKernel s name a b out n

    let stBatchSubmit s ~batch ~item_size =
      call3 stub stBatchSubmit s batch item_size

    let stBatchCollect s ~ticket ~size = call3 stub stBatchCollect s ticket size
  end in
  (module M : S)
