(* The AvA-generated guest library for SimST.

   The stream API is where asynchronous forwarding earns its keep: the
   plan marks enqueue-shaped calls [async] and the ordering key keeps
   per-stream order on the wire, so the stub returns before the device
   has seen the work.  [sync_on] calls (stream/event synchronize, batch
   collect) ride the normal synchronous path — the server withholds the
   reply until the native call's completion point passes. *)

module Stub = Ava_remoting.Stub

open Ava_simst.Types
open Codec

include Silo.Guest (struct
  type error = status

  let of_code = status_of_code
  let failure _ = St_fail
end)

type t = { stub : Stub.t }

let create stub =
  let t = { stub } in
  let module M = struct
    let stDeviceGetCount () =
      sync t.stub ~fn:"stDeviceGetCount" ~args:[ u ] (ret_out to_i 0)

    let stStreamCreate () =
      sync t.stub ~fn:"stStreamCreate" ~args:[ u ] ret_handle

    let stStreamDestroy s =
      sync t.stub ~fn:"stStreamDestroy" ~args:[ h s ] ret_unit

    let stStreamSynchronize s =
      sync t.stub ~fn:"stStreamSynchronize" ~args:[ h s ] ret_unit

    let stEventCreate () =
      sync t.stub ~fn:"stEventCreate" ~args:[ u ] ret_handle

    let stEventDestroy ev =
      sync t.stub ~fn:"stEventDestroy" ~args:[ h ev ] ret_unit

    let stEventRecord ev s =
      fire t.stub ~fn:"stEventRecord" ~args:[ h ev; h s ] ()

    let stEventSynchronize ev =
      sync t.stub ~fn:"stEventSynchronize" ~args:[ h ev ] ret_unit

    let stStreamWaitEvent s ev =
      fire t.stub ~fn:"stStreamWaitEvent" ~args:[ h s; h ev ] ()

    let stMemAlloc ~size =
      sync t.stub ~fn:"stMemAlloc" ~args:[ u; i size ] ret_handle
    let stMemFree m = sync t.stub ~fn:"stMemFree" ~args:[ h m ] ret_unit

    (* The guest may reuse [src] the moment the call returns; the stub
       owns the snapshot (see [Stub.send_call]). *)
    let stMemcpyHtoDAsync dst ~src s =
      fire t.stub ~fn:"stMemcpyHtoDAsync"
        ~args:[ h dst; b src; i (Bytes.length src); h s ]
        ()

    let stMemcpyDtoH ~size src =
      sync t.stub ~fn:"stMemcpyDtoH" ~args:[ u; i size; h src ] (ret_out to_b 0)

    let stLaunchKernel s ~name ~a ~b:bm ~out ~n =
      fire t.stub ~fn:"stLaunchKernel"
        ~args:
          [
            h s; b (Bytes.of_string name); i (String.length name); h a; h bm;
            h out; i n;
          ]
        ()

    let stBatchSubmit s ~batch ~item_size =
      sync t.stub ~fn:"stBatchSubmit"
        ~args:
          [ h s; b batch; i (Bytes.length batch); i item_size; u ]
        (ret_out to_i 0)

    let stBatchCollect s ~ticket ~size =
      sync t.stub ~fn:"stBatchCollect" ~args:[ h s; i ticket; u; i size ]
        (ret_out to_b 0)
  end in
  ((module M : Ava_simst.Api.S), t)

let stub t = t.stub
