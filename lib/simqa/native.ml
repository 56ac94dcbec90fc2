(* Native SimQA stack over the simulated QAT card; one instance per host
   process, as with the other silos. *)

open Ava_sim
open Types

let call_ns = Time.ns 300

type session = { s_direction : direction }

type st = {
  engine : Engine.t;
  qat : Device.t;
  mutable next_handle : int;
  instances : (instance_handle, unit) Hashtbl.t;
  sessions : (session_handle, session) Hashtbl.t;
}

let enter () =
  Engine.delay call_ns

let fresh st =
  st.next_handle <- st.next_handle + 1;
  st.next_handle

let create ?(owned = false) qat =
  let st =
    {
      engine = Device.engine_of qat;
      qat;
      next_handle = 700;
      instances = Hashtbl.create 4;
      sessions = Hashtbl.create 8;
    }
  in
  let module M = struct
    let qaGetNumInstances () =
      enter ();
      Ok 1

    let qaStartInstance ~index =
      enter ();
      if index <> 0 then Error Qa_invalid_param
      else begin
        let h = fresh st in
        Hashtbl.replace st.instances h ();
        Ok h
      end

    let qaStopInstance inst =
      enter ();
      if not (Hashtbl.mem st.instances inst) then Error Qa_invalid_param
      else begin
        Hashtbl.remove st.instances inst;
        Ok ()
      end

    let qaCreateSession inst direction ~level =
      enter ();
      if not (Hashtbl.mem st.instances inst) then Error Qa_invalid_param
      else if level < 1 || level > 9 then Error Qa_invalid_param
      else begin
        let h = fresh st in
        Hashtbl.replace st.sessions h { s_direction = direction };
        Ok h
      end

    let qaRemoveSession sess =
      enter ();
      if not (Hashtbl.mem st.sessions sess) then Error Qa_invalid_param
      else begin
        Hashtbl.remove st.sessions sess;
        Ok ()
      end

    let qaCompress sess ~src =
      enter ();
      match Hashtbl.find_opt st.sessions sess with
      | None -> Error Qa_invalid_param
      | Some { s_direction = Dir_decompress; _ } -> Error Qa_unsupported
      | Some _ -> (
          match Device.compress st.qat ~input:src with
          | Ok out -> Ok out
          | Error `Corrupt -> Error Qa_fail)

    let qaDecompress sess ~src =
      enter ();
      match Hashtbl.find_opt st.sessions sess with
      | None -> Error Qa_invalid_param
      | Some { s_direction = Dir_compress; _ } -> Error Qa_unsupported
      | Some _ -> (
          match Device.decompress st.qat ~input:src with
          | Ok out -> Ok out
          | Error `Corrupt -> Error Qa_fail)

    let qaSubmitCompress sess ~src ~tag ~callback =
      enter ();
      match Hashtbl.find_opt st.sessions sess with
      | None -> Error Qa_invalid_param
      | Some { s_direction = Dir_decompress; _ } -> Error Qa_unsupported
      | Some _ ->
          let input = if owned then src else Bytes.copy src in
          Engine.spawn st.engine (fun () ->
              match Device.compress st.qat ~input with
              | Ok out -> callback ~tag out
              | Error `Corrupt -> ());
          Ok ()

    let qaGetStats inst =
      enter ();
      if not (Hashtbl.mem st.instances inst) then Error Qa_invalid_param
      else Ok (Device.ops st.qat, Device.bytes_in st.qat)

    let qaGetStatsEx inst =
      enter ();
      if not (Hashtbl.mem st.instances inst) then Error Qa_invalid_param
      else
        Ok
          {
            se_ops = Device.ops st.qat;
            se_bytes_in = Device.bytes_in st.qat;
            se_bytes_out = Device.bytes_out st.qat;
          }
  end in
  ((module M : Api.S), st)

let live_sessions st = Hashtbl.length st.sessions
