(* The AvA-generated remoting glue for SimQA (QuickAssist): the paper's
   §5 future-work target, here a table of declarations plus three
   functions written by hand. *)

module type S = Ava_simqa.Api.S

module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Wire = Ava_remoting.Wire

open Ava_simqa.Types
open Silo

type state = (module S)

let make_state qat ~vm_id:_ = fst (Ava_simqa.Native.create ~owned:true qat)

include Make (struct
  type error = status
  type nonrec state = state
  type api = (module S)

  let of_code = status_of_code and to_code = status_to_code
  let failure _ = Qa_fail
  let api st = st
end)

let direction = [ (Dir_compress, 0); (Dir_decompress, 1) ]

let qaGetNumInstances =
  fn0 "qaGetNumInstances" [ Out ] (Ret Int)
    (fun (module QA) -> QA.qaGetNumInstances ())
let qaStartInstance =
  fn1 "qaStartInstance" [ A Int; Out ] (Fresh [])
    (fun (module QA) index -> QA.qaStartInstance ~index)
let qaStopInstance =
  on_handle "qaStopInstance" (fun (module QA) -> QA.qaStopInstance)
let qaCreateSession =
  fn3 "qaCreateSession" [ A Handle; B (Enum direction); C Int; Out ]
    (Fresh []) (fun (module QA) inst dir level ->
      QA.qaCreateSession inst dir ~level)
let qaRemoveSession =
  on_handle "qaRemoveSession" (fun (module QA) -> QA.qaRemoveSession)

(* The destination is an out-parameter bounded by its capacity. *)
let xfer name run =
  fn2 name [ A Handle; B (Sized Blob); Out; Const (i (16 * 1024 * 1024)) ]
    (Ret (Sized Blob)) run

let qaCompress = xfer "qaCompress" (fun (module QA) s src -> QA.qaCompress s ~src)
let qaDecompress =
  xfer "qaDecompress" (fun (module QA) s src -> QA.qaDecompress s ~src)

(* By hand: the callback parameter travels as the id of a closure the
   guest registered, and the server's completion path upcalls it. *)
let submit_compress =
  by_hand "qaSubmitCompress" (fun server ctx (module QA : S) args ->
      match args with
      | [ sess; src; _len; cb; tag ] ->
          let vm_id = Server.Ctx.vm ctx in
          let cb = to_i cb in
          of_result
            (QA.qaSubmitCompress (resolve ctx (to_i sess)) ~src:(to_b src)
               ~tag:(to_i tag)
               ~callback:(fun ~tag out ->
                 Server.upcall server ~vm_id ~cb ~args:[ i tag; b out ]))
            (fun () -> ok_unit)
      | _ -> raise Server.Bad_args)

(* By hand: struct replies, one out-value per field. *)
let get_stats =
  by_hand "qaGetStats" (fun _ ctx (module QA : S) args ->
      match args with
      | [ inst; _; _ ] ->
          of_result (QA.qaGetStats (resolve ctx (to_i inst)))
            (fun (ops, bytes) -> ok_ret (i 0) [ i ops; i bytes ])
      | _ -> raise Server.Bad_args)

let get_stats_ex =
  by_hand "qaGetStatsEx" (fun _ ctx (module QA : S) args ->
      match args with
      | [ inst; _out ] ->
          of_result (QA.qaGetStatsEx (resolve ctx (to_i inst))) (fun se ->
              ok_ret (i 0)
                [ Wire.List [ i se.se_ops; i se.se_bytes_in; i se.se_bytes_out ] ])
      | _ -> raise Server.Bad_args)


let create stub =
  let module M = struct
    let qaGetNumInstances () = call0 stub qaGetNumInstances ()
    let qaStartInstance ~index = call1 stub qaStartInstance index
    let qaStopInstance inst = call1 stub qaStopInstance inst

    let qaCreateSession inst dir ~level = call3 stub qaCreateSession inst dir level
    let qaRemoveSession sess = call1 stub qaRemoveSession sess
    let qaCompress sess ~src = call2 stub qaCompress sess src
    let qaDecompress sess ~src = call2 stub qaDecompress sess src

    let qaSubmitCompress sess ~src ~tag ~callback =
      let cb =
        Stub.register_callback stub (fun args ->
            match args with
            | [ Wire.I64 tag; Wire.Blob out ] ->
                callback ~tag:(Int64.to_int tag) out
            | _ -> ())
      in
      call stub ~fn:submit_compress
        ~args:[ h sess; b src; i (Bytes.length src); i cb; i tag ]
        (Ok ()) keep

    let qaGetStats inst =
      call stub ~fn:get_stats ~args:[ h inst; u; u ] cannot_forward
        (fun _ reply -> Ok (to_i (out reply 0), to_i (out reply 1)))

    let qaGetStatsEx inst =
      call stub ~fn:get_stats_ex ~args:[ h inst; u ] cannot_forward
        (fun _ reply ->
          match to_l (out reply 0) with
          | [ ops; bytes_in; bytes_out ] ->
              Ok
                { se_ops = ops; se_bytes_in = bytes_in;
                  se_bytes_out = bytes_out }
          | _ -> Error Qa_fail)
  end in
  (module M : S)
