(* The AvA-generated API server dispatch for SimST.

   The stream silo's server half: one wire value per C parameter in
   declaration order, guest virtual ids resolved through the per-VM
   context, object-creating calls binding fresh ids.  Stream ordering
   itself lives in the device model — the handlers just call the native
   API, exactly as generated dispatch would. *)

module Wire = Ava_remoting.Wire
module Server = Ava_remoting.Server

open Ava_simst.Types
open Codec

type state = {
  api : (module Ava_simst.Api.S);
  native : Ava_simst.Native.st;
}

let make_state dev ~vm_id:_ =
  let api, native = Ava_simst.Native.create dev in
  { api; native }

include Silo.Handler (struct
  type error = status

  let to_code = status_to_code
end)

(* Live-object accessors for migration: device memory, copied directly
   (the stream device model has no DMA path of its own). *)
let live =
  let find st host = Ava_simst.Native.find_mem st.native host in
  {
    Silo.alloc_fn = "stMemAlloc";
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

let register server =
  let reg = Server.register server in

  reg "stDeviceGetCount" (fun _ctx st args ->
      match args with
      | [ _out ] ->
          let module ST = (val st.api) in
          of_result (ST.stDeviceGetCount ()) (fun n -> ok_ret (i 0) [ i n ])
      | _ -> raise Bad_args);

  (* Object-creating calls: the server mints the virtual id the guest
     will use from now on. *)
  let creator name f =
    reg name (fun ctx st args ->
        match args with
        | [ _out ] ->
            let module ST = (val st.api) in
            of_result (f (module ST : Ava_simst.Api.S)) (fun host ->
                ok_ret (h (bind_fresh ctx ~host)) [])
        | _ -> raise Bad_args)
  in
  creator "stStreamCreate" (fun (module ST) -> ST.stStreamCreate ());
  creator "stEventCreate" (fun (module ST) -> ST.stEventCreate ());

  let one_handle name f = reg name (on_handle (fun st -> f st.api)) in
  one_handle "stStreamDestroy" (fun (module ST) s -> ST.stStreamDestroy s);
  one_handle "stStreamSynchronize" (fun (module ST) s ->
      ST.stStreamSynchronize s);
  one_handle "stEventDestroy" (fun (module ST) e -> ST.stEventDestroy e);
  one_handle "stEventSynchronize" (fun (module ST) e ->
      ST.stEventSynchronize e);
  one_handle "stMemFree" (fun (module ST) m -> ST.stMemFree m);

  reg "stEventRecord" (fun ctx st args ->
      match args with
      | [ ev; s ] ->
          let module ST = (val st.api) in
          of_result
            (ST.stEventRecord (resolve ctx (to_h ev)) (resolve ctx (to_h s)))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "stStreamWaitEvent" (fun ctx st args ->
      match args with
      | [ s; ev ] ->
          let module ST = (val st.api) in
          of_result
            (ST.stStreamWaitEvent (resolve ctx (to_h s))
               (resolve ctx (to_h ev)))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "stMemAlloc" (fun ctx st args ->
      match args with
      | [ _out; size ] ->
          let module ST = (val st.api) in
          of_result (ST.stMemAlloc ~size:(to_i size)) (fun host ->
              ok_ret (h (bind_fresh ctx ~host)) [])
      | _ -> raise Bad_args);

  reg "stMemcpyHtoDAsync" (fun ctx st args ->
      match args with
      | [ dst; src; _size; s ] ->
          let module ST = (val st.api) in
          of_result
            (ST.stMemcpyHtoDAsync (resolve ctx (to_h dst)) ~src:(to_b src)
               (resolve ctx (to_h s)))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "stMemcpyDtoH" (fun ctx st args ->
      match args with
      | [ _out; size; src ] ->
          let module ST = (val st.api) in
          of_result
            (ST.stMemcpyDtoH ~size:(to_i size) (resolve ctx (to_h src)))
            (fun data -> ok_ret (i 0) [ b data ])
      | _ -> raise Bad_args);

  reg "stLaunchKernel" (fun ctx st args ->
      match args with
      | [ s; name; _name_size; a; bm; out; n ] ->
          let module ST = (val st.api) in
          of_result
            (ST.stLaunchKernel (resolve ctx (to_h s))
               ~name:(Bytes.to_string (to_b name))
               ~a:(resolve ctx (to_h a))
               ~b:(resolve ctx (to_h bm))
               ~out:(resolve ctx (to_h out))
               ~n:(to_i n))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "stBatchSubmit" (fun ctx st args ->
      match args with
      | [ s; batch; _batch_size; item_size; _out ] ->
          let module ST = (val st.api) in
          of_result
            (ST.stBatchSubmit (resolve ctx (to_h s)) ~batch:(to_b batch)
               ~item_size:(to_i item_size))
            (fun ticket -> ok_ret (i 0) [ i ticket ])
      | _ -> raise Bad_args);

  reg "stBatchCollect" (fun ctx st args ->
      match args with
      | [ s; ticket; _out; size ] ->
          let module ST = (val st.api) in
          of_result
            (ST.stBatchCollect (resolve ctx (to_h s)) ~ticket:(to_i ticket)
               ~size:(to_i size))
            (fun scores -> ok_ret (i 0) [ b scores ])
      | _ -> raise Bad_args)
