(* The native SimCL user-mode stack (API + user-mode driver).

   [create] returns a fresh first-class module implementing {!Api.S} with
   its own handle namespace over a shared kernel driver — one instance per
   host process, which is the process-level isolation AvA's API servers
   rely on.

   Command-queue semantics follow OpenCL's in-order queues: every enqueue
   chains on the queue's previous operation plus its explicit wait list.
   Non-blocking enqueues run in a spawned process and complete through an
   event. *)

open Ava_sim
open Types

(* Per-call user-space overhead (argument checking, handle lookup). *)
let call_ns = Time.ns 300

type ev = {
  ev_done : unit Ivar.t;
  mutable ev_refs : int;
  mutable ev_status : event_status;
  ev_queued : Time.t;
  mutable ev_submitted : Time.t;
  mutable ev_started : Time.t;
  mutable ev_finished : Time.t;
}

type ctx = { mutable ctx_refs : int }

type queue = {
  q_ctx : context;
  mutable q_refs : int;
  mutable q_last : ev option;
  mutable q_tail_is_ring : bool;
      (** every incomplete op on this queue went through the hardware
          ring, so a new ring op may be submitted immediately (the FIFO
          ring preserves in-order semantics) *)
  mutable q_failed : bool;
      (** a command on this queue was killed by a device fault or reset;
          reported once at the next [clFinish] (deferred-error style) *)
}

type memobj = {
  m_buf : Ava_device.Gpu.buffer;
  m_size : int;
  mutable m_refs : int;
}

type prog = {
  p_source : string;
  mutable p_kernels : Builtin.t list option; (* Some after successful build *)
  mutable p_log : string;
  mutable p_refs : int;
}

type kern = {
  k_impl : Builtin.t;
  k_args : (int, kernel_arg) Hashtbl.t;
  mutable k_refs : int;
}

type st = {
  engine : Engine.t;
  kd : Kdriver.t;
  client : int;  (* VM attribution for targeted fault injection *)
  mutable next_handle : int;
  contexts : (context, ctx) Hashtbl.t;
  queues : (command_queue, queue) Hashtbl.t;
  mems : (mem, memobj) Hashtbl.t;
  programs : (program, prog) Hashtbl.t;
  kernels : (kernel, kern) Hashtbl.t;
  events : (event, ev) Hashtbl.t;
}

let the_platform = 1
let the_device = 1

let fresh st =
  st.next_handle <- st.next_handle + 1;
  st.next_handle

let enter () =
  Engine.delay call_ns

let lookup tbl h err = match Hashtbl.find_opt tbl h with
  | Some v -> Ok v
  | None -> Error err

let ( let* ) = Result.bind

let new_ev st ~register =
  let e =
    {
      ev_done = Ivar.create ();
      ev_refs = 1;
      ev_status = Queued;
      ev_queued = Engine.now st.engine;
      ev_submitted = 0;
      ev_started = 0;
      ev_finished = 0;
    }
  in
  let handle = if register then begin
      let h = fresh st in
      Hashtbl.replace st.events h e;
      Some h
    end
    else None
  in
  (e, handle)

let complete_ev st e =
  e.ev_status <- Complete;
  e.ev_finished <- Engine.now st.engine;
  Ivar.fill e.ev_done ()

(* Wait for the queue's previous op and the explicit wait list. *)
let resolve_deps st q ~wait_list =
  let rec evs acc = function
    | [] -> Ok (List.rev acc)
    | h :: rest -> (
        match Hashtbl.find_opt st.events h with
        | Some e -> evs (e :: acc) rest
        | None -> Error Invalid_event)
  in
  let* waits = evs [] wait_list in
  let deps = match q.q_last with Some e -> e :: waits | None -> waits in
  Ok deps

let await_deps deps = List.iter (fun e -> Ivar.read e.ev_done) deps

(* Run an enqueue operation [op] (already validated) with in-order
   semantics.  [blocking] runs it inline; otherwise a process is spawned
   and the returned event tracks completion. *)
let enqueue_op st q ~wait_list ~want_event ~blocking op =
  let* deps = resolve_deps st q ~wait_list in
  let e, handle = new_ev st ~register:want_event in
  q.q_last <- Some e;
  (* This op completes outside the hardware ring, so later ring ops must
     chain on it rather than being submitted directly. *)
  q.q_tail_is_ring <- false;
  let work () =
    await_deps deps;
    e.ev_status <- Running;
    e.ev_submitted <- Engine.now st.engine;
    e.ev_started <- Engine.now st.engine;
    op ();
    complete_ev st e
  in
  if blocking then begin
    work ();
    Ok (if want_event then handle else None)
  end
  else begin
    Engine.spawn st.engine work;
    Ok (if want_event then handle else None)
  end

(* Ring operations (kernels, copies, fills) take a fast path when
   in-order semantics are already guaranteed by the FIFO hardware ring:
   submit immediately from the caller and let a waiter process complete
   the event.  This is what lets one queue keep many commands in flight
   back to back, like a real driver. *)
let ring_fastpath_ok q =
  match q.q_last with
  | None -> true
  | Some e -> Ivar.is_filled e.ev_done || q.q_tail_is_ring

let enqueue_ring_op st q ~wait_list ~want_event work =
  if wait_list = [] && ring_fastpath_ok q then begin
    let e, handle = new_ev st ~register:want_event in
    q.q_last <- Some e;
    q.q_tail_is_ring <- true;
    let completion = Kdriver.submit ~client:st.client st.kd work in
    e.ev_status <- Submitted;
    e.ev_submitted <- Engine.now st.engine;
    Engine.spawn st.engine (fun () ->
        Kdriver.wait st.kd completion;
        if completion.Ava_device.Gpu.failed then q.q_failed <- true;
        e.ev_status <- Running;
        e.ev_started <- completion.Ava_device.Gpu.started_at;
        complete_ev st e);
    Ok (if want_event then handle else None)
  end
  else
    enqueue_op st q ~wait_list ~want_event ~blocking:false (fun () ->
        let completion = Kdriver.submit ~client:st.client st.kd work in
        Kdriver.wait st.kd completion;
        if completion.Ava_device.Gpu.failed then q.q_failed <- true)

(* Snapshot kernel args and resolve them against live buffers. *)
let resolve_args st k =
  let n =
    Hashtbl.fold (fun i _ acc -> Stdlib.max acc (i + 1)) k.k_args 0
  in
  let missing = ref false in
  let args =
    Array.init n (fun i ->
        match Hashtbl.find_opt k.k_args i with
        | None ->
            missing := true;
            Builtin.Rint 0
        | Some (Arg_int v) -> Builtin.Rint v
        | Some (Arg_float v) -> Builtin.Rfloat v
        | Some (Arg_local v) -> Builtin.Rlocal v
        | Some (Arg_mem m) -> (
            match Hashtbl.find_opt st.mems m with
            | Some mo -> Builtin.Rmem mo.m_buf.Ava_device.Gpu.data
            | None ->
                missing := true;
                Builtin.Rint 0))
  in
  if !missing then Error Invalid_arg_value else Ok args

let create ?(client = 0) ?(owned = false) kd =
  let st =
    {
      engine = Kdriver.engine kd;
      kd;
      client;
      next_handle = 100;
      contexts = Hashtbl.create 8;
      queues = Hashtbl.create 8;
      mems = Hashtbl.create 32;
      programs = Hashtbl.create 8;
      kernels = Hashtbl.create 16;
      events = Hashtbl.create 64;
    }
  in
  let module M = struct
    (* Platform / device *)

    let clGetPlatformIDs () =
      enter ();
      Ok [ the_platform ]

    let clGetPlatformInfo p info =
      enter ();
      if p <> the_platform then Error Invalid_platform
      else
        Ok
          (match info with
          | Platform_name -> "SimCL"
          | Platform_vendor -> "AvA reproduction"
          | Platform_version -> "OpenCL 1.2 SimCL")

    let clGetDeviceIDs p ty =
      enter ();
      if p <> the_platform then Error Invalid_platform
      else
        match ty with
        | Device_gpu | Device_all -> Ok [ the_device ]
        | Device_accelerator -> Ok []

    let clGetDeviceInfo d info =
      enter ();
      if d <> the_device then Error Invalid_device
      else
        let timing = Ava_device.Gpu.timing (Kdriver.gpu st.kd) in
        Ok
          (match info with
          | Device_name -> Info_string "SimCL GTX-1080"
          | Device_global_mem_size ->
              Info_int timing.Ava_device.Timing.mem_capacity
          | Device_max_compute_units -> Info_int 20
          | Device_max_work_group_size -> Info_int 1024)

    (* Contexts *)

    let clCreateContext devices =
      enter ();
      if devices = [] || List.exists (fun d -> d <> the_device) devices then
        Error Invalid_device
      else begin
        let h = fresh st in
        Hashtbl.replace st.contexts h
          { ctx_refs = 1 };
        Ok h
      end

    let clRetainContext c =
      enter ();
      let* ctx = lookup st.contexts c Invalid_context in
      ctx.ctx_refs <- ctx.ctx_refs + 1;
      Ok ()

    let clReleaseContext c =
      enter ();
      let* ctx = lookup st.contexts c Invalid_context in
      ctx.ctx_refs <- ctx.ctx_refs - 1;
      if ctx.ctx_refs = 0 then Hashtbl.remove st.contexts c;
      Ok ()

    let clGetContextInfo c =
      enter ();
      let* ctx = lookup st.contexts c Invalid_context in
      Ok ctx.ctx_refs

    (* Command queues *)

    let clCreateCommandQueue c d ~profiling:_ =
      enter ();
      let* _ = lookup st.contexts c Invalid_context in
      if d <> the_device then Error Invalid_device
      else begin
        let h = fresh st in
        Hashtbl.replace st.queues h
          {
            q_ctx = c;
            q_refs = 1;
            q_last = None;
            q_tail_is_ring = true;
            q_failed = false;
          };
        Ok h
      end

    let clRetainCommandQueue q =
      enter ();
      let* queue = lookup st.queues q Invalid_command_queue in
      queue.q_refs <- queue.q_refs + 1;
      Ok ()

    let clReleaseCommandQueue q =
      enter ();
      let* queue = lookup st.queues q Invalid_command_queue in
      queue.q_refs <- queue.q_refs - 1;
      if queue.q_refs = 0 then Hashtbl.remove st.queues q;
      Ok ()

    let clGetCommandQueueInfo q =
      enter ();
      let* queue = lookup st.queues q Invalid_command_queue in
      Ok queue.q_ctx

    (* Memory objects *)

    let clCreateBuffer c ~size =
      enter ();
      let* _ = lookup st.contexts c Invalid_context in
      if size <= 0 then Error Invalid_value
      else
        match Kdriver.alloc_buffer st.kd ~size with
        | Error `Out_of_memory -> Error Mem_object_allocation_failure
        | Ok buf ->
            let h = fresh st in
            Hashtbl.replace st.mems h
              { m_buf = buf; m_size = size; m_refs = 1 };
            Ok h

    let clRetainMemObject m =
      enter ();
      let* mo = lookup st.mems m Invalid_mem_object in
      mo.m_refs <- mo.m_refs + 1;
      Ok ()

    let clReleaseMemObject m =
      enter ();
      let* mo = lookup st.mems m Invalid_mem_object in
      mo.m_refs <- mo.m_refs - 1;
      if mo.m_refs = 0 then begin
        Kdriver.free_buffer st.kd mo.m_buf.Ava_device.Gpu.buf_id;
        Hashtbl.remove st.mems m
      end;
      Ok ()

    let clGetMemObjectInfo m =
      enter ();
      let* mo = lookup st.mems m Invalid_mem_object in
      Ok mo.m_size

    (* Programs *)

    let clCreateProgramWithSource c ~source =
      enter ();
      let* _ = lookup st.contexts c Invalid_context in
      if String.trim source = "" then Error Invalid_value
      else begin
        let h = fresh st in
        Hashtbl.replace st.programs h
          { p_source = source; p_kernels = None; p_log = ""; p_refs = 1 };
        Ok h
      end

    let clBuildProgram p ~options =
      enter ();
      ignore options;
      let* prog = lookup st.programs p Invalid_program in
      (* "Compiling" costs time proportional to source length. *)
      Engine.delay (Time.us (10 + String.length prog.p_source));
      match Builtin.parse_source prog.p_source with
      | Ok kernels ->
          prog.p_kernels <- Some kernels;
          prog.p_log <- "build ok";
          Ok ()
      | Error msg ->
          prog.p_log <- msg;
          Error Build_program_failure

    let clGetProgramBuildInfo p =
      enter ();
      let* prog = lookup st.programs p Invalid_program in
      Ok prog.p_log

    let clRetainProgram p =
      enter ();
      let* prog = lookup st.programs p Invalid_program in
      prog.p_refs <- prog.p_refs + 1;
      Ok ()

    let clReleaseProgram p =
      enter ();
      let* prog = lookup st.programs p Invalid_program in
      prog.p_refs <- prog.p_refs - 1;
      if prog.p_refs = 0 then Hashtbl.remove st.programs p;
      Ok ()

    (* Kernels *)

    let clCreateKernel p ~name =
      enter ();
      let* prog = lookup st.programs p Invalid_program in
      match prog.p_kernels with
      | None -> Error Invalid_program_executable
      | Some kernels -> (
          match
            List.find_opt (fun k -> String.equal k.Builtin.name name) kernels
          with
          | None -> Error Invalid_kernel_name
          | Some impl ->
              let h = fresh st in
              Hashtbl.replace st.kernels h
                {
                  k_impl = impl;
                  k_args = Hashtbl.create 8;
                  k_refs = 1;
                };
              Ok h)

    let clRetainKernel k =
      enter ();
      let* kern = lookup st.kernels k Invalid_kernel in
      kern.k_refs <- kern.k_refs + 1;
      Ok ()

    let clReleaseKernel k =
      enter ();
      let* kern = lookup st.kernels k Invalid_kernel in
      kern.k_refs <- kern.k_refs - 1;
      if kern.k_refs = 0 then Hashtbl.remove st.kernels k;
      Ok ()

    let clSetKernelArg k ~index arg =
      enter ();
      let* kern = lookup st.kernels k Invalid_kernel in
      if index < 0 || index > 63 then Error Invalid_arg_index
      else
        match arg with
        | Arg_mem m when not (Hashtbl.mem st.mems m) ->
            Error Invalid_arg_value
        | _ ->
            Hashtbl.replace kern.k_args index arg;
            Ok ()

    let clGetKernelInfo k =
      enter ();
      let* kern = lookup st.kernels k Invalid_kernel in
      Ok kern.k_impl.Builtin.name

    let clGetKernelWorkGroupInfo k d =
      enter ();
      let* _ = lookup st.kernels k Invalid_kernel in
      if d <> the_device then Error Invalid_device else Ok 1024

    (* Enqueue operations *)

    let launch q_handle k ~global_work_size ~local_work_size ~wait_list
        ~want_event =
      let* q = lookup st.queues q_handle Invalid_command_queue in
      let* kern = lookup st.kernels k Invalid_kernel in
      if global_work_size <= 0 || local_work_size < 0 then Error Invalid_value
      else
        let* args = resolve_args st kern in
        let impl = kern.k_impl in
        let action =
          match impl.Builtin.run with
          | None -> None
          | Some run -> Some (fun () -> run args global_work_size)
        in
        let work =
          {
            Ava_device.Gpu.kernel_name = impl.Builtin.name;
            work_items = global_work_size;
            flops_per_item = impl.Builtin.flops_per_item;
            bytes_per_item = impl.Builtin.bytes_per_item;
            action;
          }
        in
        enqueue_ring_op st q ~wait_list ~want_event work

    let clEnqueueNDRangeKernel q k ~global_work_size ~local_work_size
        ~wait_list ~want_event =
      enter ();
      launch q k ~global_work_size ~local_work_size ~wait_list ~want_event

    let clEnqueueTask q k ~wait_list ~want_event =
      enter ();
      launch q k ~global_work_size:1 ~local_work_size:1 ~wait_list ~want_event

    let clEnqueueReadBuffer q m ~blocking ~offset ~size ~wait_list ~want_event
        =
      enter ();
      let* queue = lookup st.queues q Invalid_command_queue in
      let* mo = lookup st.mems m Invalid_mem_object in
      if offset < 0 || size < 0 || offset + size > mo.m_size then
        Error Invalid_value
      else begin
        let dst = Bytes.make size '\000' in
        let op () =
          Kdriver.read_into ~client:st.client st.kd ~buf:mo.m_buf ~offset ~dst
        in
        let* ev = enqueue_op st queue ~wait_list ~want_event ~blocking op in
        Ok (dst, ev)
      end

    let clEnqueueWriteBuffer q m ~blocking ~offset ~src ~wait_list ~want_event
        =
      enter ();
      let* queue = lookup st.queues q Invalid_command_queue in
      let* mo = lookup st.mems m Invalid_mem_object in
      let size = Bytes.length src in
      if offset < 0 || offset + size > mo.m_size then Error Invalid_value
      else
        (* Snapshot the host buffer, as a non-blocking write may refer to
           it after the caller has moved on; an owned input is frozen. *)
        let src = if owned then src else Bytes.copy src in
        enqueue_op st queue ~wait_list ~want_event ~blocking (fun () ->
            Kdriver.write_buffer ~client:st.client st.kd ~buf:mo.m_buf ~offset
              ~src)

    let clEnqueueCopyBuffer q ~src ~dst ~src_offset ~dst_offset ~size
        ~wait_list ~want_event =
      enter ();
      let* queue = lookup st.queues q Invalid_command_queue in
      let* smo = lookup st.mems src Invalid_mem_object in
      let* dmo = lookup st.mems dst Invalid_mem_object in
      if
        src_offset < 0 || dst_offset < 0 || size < 0
        || src_offset + size > smo.m_size
        || dst_offset + size > dmo.m_size
      then Error Invalid_value
      else
        let work =
          Kdriver.copy_work ~src:smo.m_buf ~dst:dmo.m_buf ~src_offset
            ~dst_offset ~size
        in
        enqueue_ring_op st queue ~wait_list ~want_event work

    let clEnqueueFillBuffer q m ~pattern ~offset ~size ~wait_list ~want_event
        =
      enter ();
      let* queue = lookup st.queues q Invalid_command_queue in
      let* mo = lookup st.mems m Invalid_mem_object in
      if offset < 0 || size < 0 || offset + size > mo.m_size then
        Error Invalid_value
      else
        let work = Kdriver.fill_work ~buf:mo.m_buf ~pattern ~offset ~size in
        enqueue_ring_op st queue ~wait_list ~want_event work

    (* Synchronization *)

    let clFlush q =
      enter ();
      let* _ = lookup st.queues q Invalid_command_queue in
      Ok ()

    let clFinish q =
      enter ();
      let* queue = lookup st.queues q Invalid_command_queue in
      (match queue.q_last with
      | Some e -> Ivar.read e.ev_done
      | None -> ());
      (* Deferred-error convention: a command killed by a device fault
         or reset reports once, at the synchronization point. *)
      if queue.q_failed then begin
        queue.q_failed <- false;
        Error Device_not_available
      end
      else Ok ()

    let clWaitForEvents events =
      enter ();
      if events = [] then Error Invalid_value
      else
        let rec get acc = function
          | [] -> Ok (List.rev acc)
          | h :: rest -> (
              match Hashtbl.find_opt st.events h with
              | Some e -> get (e :: acc) rest
              | None -> Error Invalid_event)
        in
        let* evs = get [] events in
        List.iter (fun e -> Ivar.read e.ev_done) evs;
        Ok ()

    (* Events *)

    let clGetEventInfo ev =
      enter ();
      let* e = lookup st.events ev Invalid_event in
      Ok e.ev_status

    let clGetEventProfilingInfo ev info =
      enter ();
      let* e = lookup st.events ev Invalid_event in
      if e.ev_status <> Complete then Error Profiling_info_not_available
      else
        Ok
          (match info with
          | Profiling_queued -> e.ev_queued
          | Profiling_submit -> e.ev_submitted
          | Profiling_start -> e.ev_started
          | Profiling_end -> e.ev_finished)

    let clReleaseEvent ev =
      enter ();
      let* e = lookup st.events ev Invalid_event in
      e.ev_refs <- e.ev_refs - 1;
      if e.ev_refs = 0 then Hashtbl.remove st.events ev;
      Ok ()
  end in
  ((module M : Api.S), st)

(* Introspection used by tests, metrics and migration. *)
let live_events st = Hashtbl.length st.events
let live_mems st = Hashtbl.length st.mems

(* Block until every command queue's tail operation has completed.  A
   queue is in-order, so its last event covers everything before it.
   Deferred errors ([q_failed]) are left armed for the owner's next
   synchronization call.  Must run inside a simulation process. *)
let quiesce st =
  Hashtbl.iter
    (fun _ q -> match q.q_last with Some e -> Ivar.read e.ev_done | None -> ())
    st.queues

(* Device buffer behind a mem handle (migration snapshot/restore). *)
let find_mem st m =
  Option.map (fun mo -> mo.m_buf) (Hashtbl.find_opt st.mems m)

let kdriver st = st.kd
