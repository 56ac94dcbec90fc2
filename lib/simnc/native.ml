(* Native MVNC stack over the simulated stick.

   Like SimCL's native layer, [create] returns a fresh instance with its
   own handle namespace over a shared {!Ava_device.Ncs.t}, modelling one
   host process. *)

open Ava_sim
open Types

let call_ns = Time.ns 300
let stick_name = "ncs-0"

type graph_state = {
  g_graph : Ava_device.Ncs.graph;
  g_output_bytes : int;
  pending : bytes result Ivar.t Queue.t;
      (** completions in FIFO order; [Error Gone] if the stick unplugged
          while the inference was in flight *)
  mutable last_infer_us : int;
}

type st = {
  engine : Engine.t;
  ncs : Ava_device.Ncs.t;
  mutable next_handle : int;
  devices : (device_handle, unit) Hashtbl.t;
  graphs : (graph_handle, graph_state) Hashtbl.t;
}

let ( let* ) = Result.bind

let enter () =
  Engine.delay call_ns

let fresh st =
  st.next_handle <- st.next_handle + 1;
  st.next_handle

let create ?(owned = false) ncs =
  let st =
    {
      engine = Ava_device.Ncs.engine ncs;
      ncs;
      next_handle = 500;
      devices = Hashtbl.create 4;
      graphs = Hashtbl.create 8;
    }
  in
  let module M = struct
    let mvncGetDeviceName ~index =
      enter ();
      if index = 0 then Ok stick_name else Error Device_not_found

    let mvncOpenDevice ~name =
      enter ();
      if not (String.equal name stick_name) then Error Device_not_found
      else begin
        let h = fresh st in
        Hashtbl.replace st.devices h ();
        Ok h
      end

    let mvncCloseDevice d =
      enter ();
      if not (Hashtbl.mem st.devices d) then Error Invalid_parameters
      else begin
        Hashtbl.remove st.devices d;
        Ok ()
      end

    let mvncAllocateGraph d ~graph_data =
      enter ();
      if not (Hashtbl.mem st.devices d) then Error Invalid_parameters
      else
        match Graphdef.decode graph_data with
        | Error `Bad_graph -> Error Unsupported_graph_file
        | Ok def -> (
            match
              Ava_device.Ncs.load_graph st.ncs
                ~graph_bytes:(Bytes.length graph_data)
                ~layer_flops:def.Graphdef.layer_flops
            with
            | exception Ava_device.Ncs.Device_lost -> Error Gone
            | g ->
                let h = fresh st in
                Hashtbl.replace st.graphs h
                  {
                    g_graph = g;
                    g_output_bytes = def.Graphdef.output_bytes;
                    pending = Queue.create ();
                    last_infer_us = 0;
                  };
                Ok h)

    let mvncDeallocateGraph g =
      enter ();
      match Hashtbl.find_opt st.graphs g with
      | None -> Error Invalid_parameters
      | Some gs ->
          (* [Error `Unknown_graph] means an unplug already wiped the
             on-stick copy; the host-side handle is still freed. *)
          (match
             Ava_device.Ncs.unload_graph st.ncs
               gs.g_graph.Ava_device.Ncs.graph_id
           with
          | Ok () | Error `Unknown_graph -> ());
          Hashtbl.remove st.graphs g;
          Ok ()

    let mvncLoadTensor g ~tensor =
      enter ();
      match Hashtbl.find_opt st.graphs g with
      | None -> Error Invalid_parameters
      | Some gs ->
          let iv = Ivar.create () in
          Queue.push iv gs.pending;
          let input = if owned then tensor else Bytes.copy tensor in
          Engine.spawn st.engine (fun () ->
              let t0 = Engine.now st.engine in
              match
                Ava_device.Ncs.infer st.ncs gs.g_graph ~input
                  ~output_bytes:gs.g_output_bytes
              with
              | exception Ava_device.Ncs.Device_lost ->
                  Ivar.fill iv (Error Gone)
              | out ->
                  gs.last_infer_us <-
                    int_of_float
                      (Time.to_float_us (Engine.now st.engine - t0));
                  Ivar.fill iv (Ok out));
          Ok ()

    let mvncGetResult g =
      enter ();
      match Hashtbl.find_opt st.graphs g with
      | None -> Error Invalid_parameters
      | Some gs ->
          if Queue.is_empty gs.pending then Error No_data
          else begin
            let iv = Queue.pop gs.pending in
            Ivar.read iv
          end

    let mvncGetGraphOption g opt =
      enter ();
      match Hashtbl.find_opt st.graphs g with
      | None -> Error Invalid_parameters
      | Some gs -> (
          match opt with
          | Graph_time_taken_us -> Ok gs.last_infer_us
          | Graph_executors -> Ok 12)

    let mvncSetGraphOption g opt _v =
      enter ();
      match Hashtbl.find_opt st.graphs g with
      | None -> Error Invalid_parameters
      | Some _ -> (
          match opt with
          | Graph_executors -> Ok ()
          | Graph_time_taken_us -> Error Invalid_parameters)

    let mvncGetDeviceOption d opt =
      enter ();
      let* () =
        if Hashtbl.mem st.devices d then Ok () else Error Invalid_parameters
      in
      match opt with
      | Device_thermal_throttle -> Ok 0
      | Device_memory_used ->
          Ok (Ava_device.Ncs.live_graphs st.ncs * 1024 * 1024)
  end in
  ((module M : Api.S), st)

let live_graphs st = Hashtbl.length st.graphs
