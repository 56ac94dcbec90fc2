(* The AvA-generated API server dispatch for SimQA. *)

module Wire = Ava_remoting.Wire
module Server = Ava_remoting.Server

open Ava_simqa.Types
open Codec

type state = {
  api : (module Ava_simqa.Api.S);
  native : Ava_simqa.Native.st;
}

let make_state qat ~vm_id:_ =
  let api, native = Ava_simqa.Native.create qat in
  { api; native }

include Silo.Handler (struct
  type error = status

  let to_code = status_to_code
end)

let register server =
  let reg = Server.register server in
  let one_handle name f = reg name (on_handle (fun st -> f st.api)) in

  reg "qaGetNumInstances" (fun _ctx st args ->
      match args with
      | [ _ ] ->
          let module QA = (val st.api) in
          of_result (QA.qaGetNumInstances ()) (fun n ->
              ok_ret (i 0) [ i n ])
      | _ -> raise Bad_args);

  reg "qaStartInstance" (fun ctx st args ->
      match args with
      | [ idx; _out ] ->
          let module QA = (val st.api) in
          of_result (QA.qaStartInstance ~index:(to_i idx)) (fun host ->
              ok_ret (h (bind_fresh ctx ~host)) [])
      | _ -> raise Bad_args);

  one_handle "qaStopInstance" (fun (module QA) -> QA.qaStopInstance);

  reg "qaCreateSession" (fun ctx st args ->
      match args with
      | [ inst; dir; level; _out ] ->
          let module QA = (val st.api) in
          of_result
            (QA.qaCreateSession (resolve ctx (to_h inst))
               (direction_of_int (to_i dir))
               ~level:(to_i level))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [])
      | _ -> raise Bad_args);

  one_handle "qaRemoveSession" (fun (module QA) -> QA.qaRemoveSession);

  let xfer call ctx st args =
    match args with
    | [ sess; src; _srclen; _dst; _maxdst ] ->
        let module QA = (val st.api) in
        let f =
          if call = `Compress then QA.qaCompress else QA.qaDecompress
        in
        of_result (f (resolve ctx (to_h sess)) ~src:(to_b src)) (fun out ->
            ok_ret (i 0) [ b out; i (Bytes.length out) ])
    | _ -> raise Bad_args
  in
  reg "qaCompress" (xfer `Compress);
  reg "qaDecompress" (xfer `Decompress);

  (* Callback parameter: the wire carries the guest's callback id; the
     server-side completion closure turns it into an upcall message. *)
  reg "qaSubmitCompress" (fun ctx st args ->
      match args with
      | [ sess; src; _len; cb; tag ] ->
          let module QA = (val st.api) in
          let vm_id = Server.Ctx.vm ctx in
          let cb = to_i cb in
          of_result
            (QA.qaSubmitCompress (resolve ctx (to_h sess)) ~src:(to_b src)
               ~tag:(to_i tag)
               ~callback:(fun ~tag out ->
                 Server.upcall server ~vm_id ~cb ~args:[ i tag; b out ]))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "qaGetStatsEx" (fun ctx st args ->
      match args with
      | [ inst; _out ] ->
          let module QA = (val st.api) in
          of_result (QA.qaGetStatsEx (resolve ctx (to_h inst))) (fun se ->
              ok_ret (i 0)
                [
                  Wire.List
                    [
                      i se.se_ops; i se.se_bytes_in; i se.se_bytes_out;
                    ];
                ])
      | _ -> raise Bad_args);

  reg "qaGetStats" (fun ctx st args ->
      match args with
      | [ inst; _; _ ] ->
          let module QA = (val st.api) in
          of_result (QA.qaGetStats (resolve ctx (to_h inst)))
            (fun (ops, bytes) -> ok_ret (i 0) [ i ops; i bytes ])
      | _ -> raise Bad_args)
