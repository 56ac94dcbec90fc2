(* The AvA-generated API server dispatch for MVNC. *)

module Wire = Ava_remoting.Wire
module Server = Ava_remoting.Server

open Ava_simnc.Types
open Codec

type state = {
  api : (module Ava_simnc.Api.S);
  native : Ava_simnc.Native.st;
}

let make_state ncs ~vm_id:_ =
  let api, native = Ava_simnc.Native.create ncs in
  { api; native }

include Silo.Handler (struct
  type error = status

  let to_code = status_to_code
end)

let register server =
  let reg = Server.register server in
  let one_handle name f = reg name (on_handle (fun st -> f st.api)) in

  reg "mvncGetDeviceName" (fun _ctx st args ->
      match args with
      | [ idx; _; _size ] ->
          let module NC = (val st.api) in
          of_result (NC.mvncGetDeviceName ~index:(to_i idx)) (fun name ->
              ok_ret (i 0) [ b (Bytes.of_string name) ])
      | _ -> raise Bad_args);

  reg "mvncOpenDevice" (fun ctx st args ->
      match args with
      | [ name; _len; _out ] ->
          let module NC = (val st.api) in
          of_result (NC.mvncOpenDevice ~name:(Bytes.to_string (to_b name)))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [])
      | _ -> raise Bad_args);

  one_handle "mvncCloseDevice" (fun (module NC) -> NC.mvncCloseDevice);

  reg "mvncAllocateGraph" (fun ctx st args ->
      match args with
      | [ d; _out; data; _len ] ->
          let module NC = (val st.api) in
          of_result
            (NC.mvncAllocateGraph (resolve ctx (to_h d))
               ~graph_data:(to_b data))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [])
      | _ -> raise Bad_args);

  one_handle "mvncDeallocateGraph" (fun (module NC) -> NC.mvncDeallocateGraph);

  reg "mvncLoadTensor" (fun ctx st args ->
      match args with
      | [ g; tensor; _len ] ->
          let module NC = (val st.api) in
          of_result
            (NC.mvncLoadTensor (resolve ctx (to_h g)) ~tensor:(to_b tensor))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "mvncGetResult" (fun ctx st args ->
      match args with
      | [ g; _out; _max ] ->
          let module NC = (val st.api) in
          of_result (NC.mvncGetResult (resolve ctx (to_h g))) (fun data ->
              ok_ret (i 0) [ b data; i (Bytes.length data) ])
      | _ -> raise Bad_args);

  reg "mvncGetGraphOption" (fun ctx st args ->
      match args with
      | [ g; opt; _ ] ->
          let module NC = (val st.api) in
          of_result
            (NC.mvncGetGraphOption (resolve ctx (to_h g))
               (graph_option_of_int (to_i opt)))
            (fun v -> ok_ret (i 0) [ i v ])
      | _ -> raise Bad_args);

  reg "mvncSetGraphOption" (fun ctx st args ->
      match args with
      | [ g; opt; v ] ->
          let module NC = (val st.api) in
          of_result
            (NC.mvncSetGraphOption (resolve ctx (to_h g))
               (graph_option_of_int (to_i opt))
               (to_i v))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "mvncGetDeviceOption" (fun ctx st args ->
      match args with
      | [ d; opt; _ ] ->
          let module NC = (val st.api) in
          of_result
            (NC.mvncGetDeviceOption (resolve ctx (to_h d))
               (device_option_of_int (to_i opt)))
            (fun v -> ok_ret (i 0) [ i v ])
      | _ -> raise Bad_args)
