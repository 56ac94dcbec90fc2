(* The simulated Intel Movidius Neural Compute Stick.

   A USB-attached inference accelerator: graphs are uploaded over USB and
   compiled on-stick; inference streams a tensor in, runs the layer
   schedule, and streams the result back.  One inference runs at a time.

   Like the GPU, the stick computes a real (cheap, deterministic) function
   of its input so results can be validated through virtualization
   stacks: output byte i of layer L is a rotation-xor of the input. *)

open Ava_sim

type graph = {
  graph_id : int;
  graph_bytes : int;
  layer_flops : float list;  (** per-layer multiply-accumulate count *)
}

type t = {
  engine : Engine.t;
  timing : Timing.ncs;
  link : Semaphore.t;  (** the USB pipe: one transaction at a time *)
  stick : Semaphore.t;  (** the compute engine: one inference at a time *)
  graphs : (int, graph) Hashtbl.t;
  fault : Devfault.t option;
  mutable plugged : bool;
  mutable next_graph_id : int;
  mutable inferences : int;
}

exception Device_lost

let create ?(timing = Timing.movidius) ?devfault engine =
  {
    engine;
    timing;
    link = Semaphore.create 1;
    stick = Semaphore.create 1;
    graphs = Hashtbl.create 8;
    fault = devfault;
    plugged = true;
    next_graph_id = 1;
    inferences = 0;
  }

let engine t = t.engine
let inferences t = t.inferences
let live_graphs t = Hashtbl.length t.graphs
let plugged t = t.plugged

let replug t =
  if not t.plugged then begin
    t.plugged <- true;
    match t.fault with Some f -> Devfault.record_replug f | None -> ()
  end

(* Forced re-enumeration (the TDR reset path): plug the stick straight
   back in without waiting out the natural re-enumeration delay. *)
let reset t = replug t

(* Occupy the USB pipe for one transaction; blocks, and raises
   [Device_lost] if the stick is (or becomes) unplugged. *)
let usb_transfer t ~bytes =
  if not t.plugged then raise Device_lost;
  (match t.fault with
  | Some f when Devfault.ncs_unplugs f ->
      (* Unplug: stick state (loaded graphs) is gone; a background
         process re-enumerates the device after the configured delay. *)
      t.plugged <- false;
      Hashtbl.reset t.graphs;
      let reenum = (Devfault.ncs_config f).ncs_reenum_ns in
      Engine.spawn t.engine (fun () ->
          Engine.delay reenum;
          replug t);
      raise Device_lost
  | _ -> ());
  Semaphore.with_acquired t.link (fun () ->
      Engine.delay t.timing.Timing.usb_latency_ns;
      Engine.delay
        (Time.of_bandwidth ~bytes ~bytes_per_s:t.timing.Timing.usb_bytes_per_s))

(* Upload and compile a graph; blocks for transfer + parse time. *)
let load_graph t ~graph_bytes ~layer_flops =
  usb_transfer t ~bytes:graph_bytes;
  let kb = (graph_bytes + 1023) / 1024 in
  Engine.delay (kb * t.timing.Timing.graph_parse_ns_per_kb);
  let id = t.next_graph_id in
  t.next_graph_id <- id + 1;
  let g = { graph_id = id; graph_bytes; layer_flops } in
  Hashtbl.replace t.graphs id g;
  g

let find_graph t id = Hashtbl.find_opt t.graphs id

let unload_graph t id =
  if not (Hashtbl.mem t.graphs id) then Error `Unknown_graph
  else begin
    Hashtbl.remove t.graphs id;
    Ok ()
  end

(* The deterministic "network": each layer rotates and xors the tensor
   with a layer-dependent constant, so output depends on every layer. *)
let apply_layers graph input =
  let n = Bytes.length input in
  let cur = Bytes.copy input in
  List.iteri
    (fun layer _flops ->
      if n > 0 then begin
        let first = Bytes.get cur 0 in
        for i = 0 to n - 2 do
          Bytes.set cur i
            (Char.chr
               (Char.code (Bytes.get cur (i + 1)) lxor (layer + 17) land 0xff))
        done;
        Bytes.set cur (n - 1)
          (Char.chr (Char.code first lxor (layer + 17) land 0xff))
      end)
    graph.layer_flops;
  cur

(* Run one inference: tensor in over USB, layer schedule on-stick,
   result back over USB.  Returns the output tensor. *)
let infer t graph ~input ~output_bytes =
  (* An unplug wipes on-stick state: a graph loaded before the unplug is
     no longer resident even after re-enumeration. *)
  if not (t.plugged && Hashtbl.mem t.graphs graph.graph_id) then
    raise Device_lost;
  usb_transfer t ~bytes:(Bytes.length input);
  let result =
    Semaphore.with_acquired t.stick (fun () ->
        List.iter
          (fun flops ->
            Engine.delay
              (Time.of_float_s (flops /. t.timing.Timing.ncs_flops_per_s)))
          graph.layer_flops;
        t.inferences <- t.inferences + 1;
        let full = apply_layers graph input in
        if output_bytes >= Bytes.length full then full
        else Bytes.sub full 0 output_bytes)
  in
  usb_transfer t ~bytes:(Bytes.length result);
  result
