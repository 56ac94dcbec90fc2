(* The AvA-generated guest library for SimQA (QuickAssist).

   The third API virtualized by this reproduction — the paper's §5
   future-work target, here a few dozen lines of plan-driven glue. *)

module Stub = Ava_remoting.Stub
module Wire = Ava_remoting.Wire

open Ava_simqa.Types
open Codec

include Silo.Guest (struct
  type error = status

  let of_code = status_of_code
  let failure _ = Qa_fail
end)

type t = { stub : Stub.t }

let max_dst = 16 * 1024 * 1024

let create stub =
  let t = { stub } in
  let module M = struct
    let qaGetNumInstances () =
      sync t.stub ~fn:"qaGetNumInstances" ~args:[ u ] (ret_out to_i 0)

    let qaStartInstance ~index =
      sync t.stub ~fn:"qaStartInstance" ~args:[ i index; u ] ret_handle

    let qaStopInstance inst =
      sync t.stub ~fn:"qaStopInstance" ~args:[ h inst ] ret_unit

    let qaCreateSession inst direction ~level =
      sync t.stub ~fn:"qaCreateSession"
        ~args:[ h inst; i (direction_to_int direction); i level; u ]
        ret_handle

    let qaRemoveSession sess =
      sync t.stub ~fn:"qaRemoveSession" ~args:[ h sess ] ret_unit

    let xfer fn sess ~src =
      sync t.stub ~fn
        ~args:[ h sess; b src; i (Bytes.length src); u; i max_dst ]
        (ret_out to_b 0)

    let qaCompress sess ~src = xfer "qaCompress" sess ~src
    let qaDecompress sess ~src = xfer "qaDecompress" sess ~src

    (* Callback parameter: register the guest closure and forward its id
       in place of the C function pointer; the server's completion path
       upcalls through it. *)
    let qaSubmitCompress sess ~src ~tag ~callback =
      let cb =
        Stub.register_callback t.stub (fun args ->
            match args with
            | [ Wire.I64 tag; Wire.Blob out ] ->
                callback ~tag:(Int64.to_int tag) out
            | _ -> ())
      in
      fire t.stub ~fn:"qaSubmitCompress"
        ~args:[ h sess; b src; i (Bytes.length src); i cb; i tag ]
        ()

    let qaGetStats inst =
      sync t.stub ~fn:"qaGetStats" ~args:[ h inst; u; u ] (fun reply ->
          Ok (to_i (out reply 0), to_i (out reply 1)))

    (* Struct out-parameter: the reply carries the fields as a list, in
       declaration order. *)
    let qaGetStatsEx inst =
      sync t.stub ~fn:"qaGetStatsEx" ~args:[ h inst; u ] (fun reply ->
          match to_l (out reply 0) with
          | [ ops; bytes_in; bytes_out ] ->
              Ok
                { se_ops = ops; se_bytes_in = bytes_in;
                  se_bytes_out = bytes_out }
          | _ -> Error Qa_fail)
  end in
  ((module M : Ava_simqa.Api.S), t)

