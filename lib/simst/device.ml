(* The simulated stream accelerator: per-stream in-order work queues in
   front of a roofline compute model, plus an NPU-style batch engine.

   Each stream is a chain of ivars: enqueueing an op captures the
   current tail and installs a new one, and a worker process runs the op
   once the predecessor's ivar fills.  Events are just references to a
   tail at record time, so cross-stream waits and host-side
   synchronization fall out of [Ivar.read].  Timing presets model three
   device classes so a heterogeneous pool has something real to place
   against. *)

open Ava_sim

type timing = {
  launch_ns : Time.t;  (** enqueue/launch overhead per op *)
  flops_per_s : float;  (** peak compute rate *)
  membw_bytes_per_s : float;  (** device memory bandwidth *)
  pcie_bytes_per_s : float;  (** host<->device copy rate *)
  batch_item_ns : Time.t;  (** per-item inference latency *)
  queue_slots : int;  (** batch queue depth, in items *)
  mem_bytes : int;  (** device memory capacity *)
}

let sm_stream =
  {
    launch_ns = Time.us 5;
    flops_per_s = 1.0e12;
    membw_bytes_per_s = 200.0e9;
    pcie_bytes_per_s = 12.0e9;
    batch_item_ns = Time.us 40;
    queue_slots = 8;
    mem_bytes = 256 * 1024 * 1024;
  }

let gpu_class =
  {
    sm_stream with
    flops_per_s = 4.0e12;
    membw_bytes_per_s = 400.0e9;
    batch_item_ns = Time.us 200;
    mem_bytes = 512 * 1024 * 1024;
  }

let npu_class =
  {
    sm_stream with
    launch_ns = Time.us 2;
    flops_per_s = 0.25e12;
    membw_bytes_per_s = 50.0e9;
    batch_item_ns = Time.us 8;
    queue_slots = 32;
    mem_bytes = 128 * 1024 * 1024;
  }

type stream = { st_id : int; mutable st_tail : unit Ivar.t }
type event = { mutable ev_done : unit Ivar.t }

type t = {
  engine : Engine.t;
  timing : timing;
  streams : (int, stream) Hashtbl.t;
  mems : (int, Bytes.t) Hashtbl.t;
  mutable next_id : int;
  mutable mem_used : int;
  mutable busy : Time.t;
  mutable exec_tail : unit Ivar.t;
      (** the single execution engine: costed ops from all streams
          serialize through this chain, so co-resident tenants contend
          for the device the way they do on real hardware.  Zero-cost
          ops (cross-stream event waits) never claim it — a waiter
          holding the executor while the awaited op queues behind it
          would deadlock the device. *)
  mutable kernels : int;
  mutable killed : bool;
  mutable wedged_by : int option;
}

let filled () =
  let iv = Ivar.create () in
  Ivar.fill iv ();
  iv

let create ?(timing = sm_stream) engine =
  {
    engine;
    timing;
    streams = Hashtbl.create 8;
    mems = Hashtbl.create 16;
    next_id = 0;
    mem_used = 0;
    busy = Time.zero;
    exec_tail = filled ();
    kernels = 0;
    killed = false;
    wedged_by = None;
  }

let engine_of t = t.engine
let timing t = t.timing
let busy_ns t = t.busy
let kernels_executed t = t.kernels
let capacity t = t.timing.mem_bytes
let killed t = t.killed
let wedged_by t = t.wedged_by

let kill ?by t =
  t.killed <- true;
  if t.wedged_by = None then t.wedged_by <- by

(* --- streams ------------------------------------------------------------ *)

let stream_create t =
  t.next_id <- t.next_id + 1;
  let s = { st_id = t.next_id; st_tail = filled () } in
  Hashtbl.replace t.streams s.st_id s;
  s

let stream_destroy t s = Hashtbl.remove t.streams s.st_id

(* Enqueue one op: wait for the stream's current tail, charge [cost] of
   device time, run [action], fill the new tail.  A killed device drains
   its queues instantly, with [action ~ok:false] so completions that
   carry results can report the loss instead of stalling collectors. *)
let enqueue ?(kernels = 0) t s ~cost action =
  let prev = s.st_tail in
  let fin = Ivar.create () in
  s.st_tail <- fin;
  Engine.spawn t.engine (fun () ->
      Ivar.read prev;
      let ok = not t.killed in
      if ok then begin
        (if cost > Time.zero then begin
           (* Claim the execution engine in arrival order among ops
              whose stream dependencies have resolved.  The claim is
              atomic (no yield between read and write of the tail). *)
           let slot_prev = t.exec_tail in
           let slot = Ivar.create () in
           t.exec_tail <- slot;
           Ivar.read slot_prev;
           Engine.delay cost;
           Ivar.fill slot ()
         end);
        t.busy <- Time.add t.busy cost;
        t.kernels <- t.kernels + kernels
      end;
      action ~ok;
      Ivar.fill fin ())

let stream_sync s = Ivar.read s.st_tail

let event_create () = { ev_done = filled () }
let event_record ev s = ev.ev_done <- s.st_tail
let event_sync ev = Ivar.read ev.ev_done

let stream_wait_event t s ev =
  let target = ev.ev_done in
  enqueue t s ~cost:Time.zero (fun ~ok -> if ok then Ivar.read target)

let quiesce t =
  let tails =
    Hashtbl.fold (fun _ s acc -> (s.st_id, s.st_tail) :: acc) t.streams []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter (fun (_, tail) -> Ivar.read tail) tails

(* --- device memory ------------------------------------------------------ *)

let alloc t ~size =
  if size <= 0 then Error `Invalid
  else if t.mem_used + size > t.timing.mem_bytes then Error `Nomem
  else begin
    t.next_id <- t.next_id + 1;
    Hashtbl.replace t.mems t.next_id (Bytes.make size '\000');
    t.mem_used <- t.mem_used + size;
    Ok t.next_id
  end

let free t id =
  match Hashtbl.find_opt t.mems id with
  | None -> false
  | Some b ->
      Hashtbl.remove t.mems id;
      t.mem_used <- t.mem_used - Bytes.length b;
      true

let find_mem t id = Hashtbl.find_opt t.mems id

(* --- cost model --------------------------------------------------------- *)

let copy_cost t ~bytes =
  Time.add t.timing.launch_ns
    (Time.of_bandwidth ~bytes ~bytes_per_s:t.timing.pcie_bytes_per_s)

(* Synchronous copy (DtoH readback): charge the caller's process. *)
let sync_copy t ~bytes =
  let c = copy_cost t ~bytes in
  Engine.delay c;
  t.busy <- Time.add t.busy c

(* Roofline: an [n]-element kernel is bound by compute or by memory
   traffic, whichever is slower. *)
let kernel_cost t ~n ~flops_per_item ~bytes_per_item =
  let compute =
    Time.of_float_s (float_of_int (n * flops_per_item) /. t.timing.flops_per_s)
  in
  let memory =
    Time.of_bandwidth ~bytes:(n * bytes_per_item)
      ~bytes_per_s:t.timing.membw_bytes_per_s
  in
  Time.add t.timing.launch_ns (Time.max compute memory)

let batch_cost t ~items ~bytes =
  let xfer =
    Time.of_bandwidth
      ~bytes:(bytes + (4 * items))
      ~bytes_per_s:t.timing.pcie_bytes_per_s
  in
  Time.add t.timing.launch_ns
    (Time.add xfer (Time.ns (items * t.timing.batch_item_ns)))

(* --- reference batch semantics ------------------------------------------ *)

(* Scoring model the tests can verify: each item's score is the sum of
   its bytes, emitted as an int32le. *)
let batch_scores ~batch ~item_size =
  let items = Bytes.length batch / item_size in
  let out = Bytes.create (4 * items) in
  for i = 0 to items - 1 do
    let score = ref 0 in
    for j = 0 to item_size - 1 do
      score := !score + Char.code (Bytes.get batch ((i * item_size) + j))
    done;
    Bytes.set_int32_le out (4 * i) (Int32.of_int (!score land 0x7fffffff))
  done;
  out
