(* The AvA-generated guest library for MVNC (Movidius NCSDK). *)

module Stub = Ava_remoting.Stub

open Ava_simnc.Types
open Codec

include Silo.Guest (struct
  type error = status

  let of_code = status_of_code
  let failure _ = General_error
end)

let create stub =
  let module M = struct
    let mvncGetDeviceName ~index =
      sync stub ~fn:"mvncGetDeviceName" ~args:[ i index; u; i 64 ]
        (ret_out (fun v -> Bytes.to_string (to_b v)) 0)

    let mvncOpenDevice ~name =
      sync stub ~fn:"mvncOpenDevice"
        ~args:[ b (Bytes.of_string name); i (String.length name); u ]
        ret_handle

    let mvncCloseDevice d =
      sync stub ~fn:"mvncCloseDevice" ~args:[ h d ] ret_unit

    let mvncAllocateGraph d ~graph_data =
      sync stub ~fn:"mvncAllocateGraph"
        ~args:[ h d; u; b graph_data; i (Bytes.length graph_data) ]
        ret_handle

    let mvncDeallocateGraph g =
      sync stub ~fn:"mvncDeallocateGraph" ~args:[ h g ] ret_unit

    (* The NCSDK's own pipelining call: forwarded asynchronously. *)
    let mvncLoadTensor g ~tensor =
      fire stub ~fn:"mvncLoadTensor"
        ~args:[ h g; b tensor; i (Bytes.length tensor) ]
        ()

    let mvncGetResult g =
      sync stub ~fn:"mvncGetResult" ~args:[ h g; u; i (1 lsl 20) ]
        (ret_out to_b 0)

    let mvncGetGraphOption g opt =
      sync stub ~fn:"mvncGetGraphOption"
        ~args:[ h g; i (graph_option_to_int opt); u ]
        (ret_out to_i 0)

    let mvncSetGraphOption g opt v =
      sync stub ~fn:"mvncSetGraphOption"
        ~args:[ h g; i (graph_option_to_int opt); i v ]
        ret_unit

    let mvncGetDeviceOption d opt =
      sync stub ~fn:"mvncGetDeviceOption"
        ~args:[ h d; i (device_option_to_int opt); u ]
        (ret_out to_i 0)
  end in
  (module M : Ava_simnc.Api.S)

