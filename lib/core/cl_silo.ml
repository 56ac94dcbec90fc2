(* The AvA-generated remoting glue for SimCL.

   The table below declares each function's wire layout once; the guest
   library ([create]) and the server's handlers ([register]) derive from
   it.  Marshalling layout, synchrony and size accounting follow the
   compiled plan of the refined CAvA spec (see {!Ava_spec.Specs}).  The
   functions no declaration can state are written by hand in it. *)

module type S = Ava_simcl.Api.S

module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Message = Ava_remoting.Message
module Wire = Ava_remoting.Wire
module Swap = Ava_remoting.Swap

open Ava_simcl.Types
open Silo

(* --- swapping ------------------------------------------------------------- *)

(* Swap keys combine VM id and host handle so one manager can serve all
   VMs sharing the device. *)
let swap_key_base = 1_000_000
let swap_key vm_id host = (vm_id * swap_key_base) + host

let forget_swap sw ~vm_id =
  Swap.remove_if sw (fun key -> key / swap_key_base = vm_id)

(* With swapping armed (§4.3), allocating and releasing a buffer enter it
   in and take it out of the manager; using one touches it. *)
let swapped sw ~vm_id (module CL : S) =
  (module struct
    include CL

    let clCreateBuffer c ~size =
      let r = CL.clCreateBuffer c ~size in
      (match r with
      | Ok host -> (
          match Swap.add sw ~key:(swap_key vm_id host) ~bytes:size with
          | Ok () | Error `Too_big -> ())
      | Error _ -> ());
      r

    let clReleaseMemObject m =
      let r = CL.clReleaseMemObject m in
      if Result.is_ok r then Swap.remove sw ~key:(swap_key vm_id m);
      r
  end : S)

type state = {
  api : (module S);
  native : Ava_simcl.Native.st;
  swap : Swap.t option;
  vm_id : int;
}

(* Thread the VM id down to the device layer as the submitting client, so
   per-client fault targeting (and TDR blame) can tell tenants apart.
   Like every silo's, a server-side instance owns its inputs (see
   {!Silo.Make}). *)
let make_state ?swap kd ~vm_id =
  let api, native = Ava_simcl.Native.create ~client:vm_id ~owned:true kd in
  let api = match swap with Some sw -> swapped sw ~vm_id api | None -> api in
  { api; native; swap; vm_id }

let swap_touch st host =
  match st.swap with
  | Some sw -> ignore (Swap.touch sw ~key:(swap_key st.vm_id host))
  | None -> ()

include Make (struct
  type error = Ava_simcl.Types.error
  type nonrec state = state
  type api = (module S)

  let of_code = error_of_code and to_code = error_to_code
  let failure msg = Remoting_failure msg
  let api st = st.api
end)

(* A buffer a call uses: resolved, and touched for swapping. *)
let used ctx st m =
  let host = resolve ctx m in
  swap_touch st host;
  host

(* --- enum codes and blob codecs ------------------------------------------- *)

let platform_info =
  [ (Platform_name, 0); (Platform_vendor, 1); (Platform_version, 2) ]

let device_info =
  [ (Device_name, 0); (Device_global_mem_size, 1);
    (Device_max_compute_units, 2); (Device_max_work_group_size, 3) ]

let device_type = [ (Device_gpu, 4); (Device_accelerator, 8); (Device_all, -1) ]
let event_status = [ (Queued, 3); (Submitted, 2); (Running, 1); (Complete, 0) ]

let profiling_info =
  [ (Profiling_queued, 0); (Profiling_submit, 1); (Profiling_start, 2);
    (Profiling_end, 3) ]

(* Device info payloads: a tagged string or int. *)
let encode_info = function
  | Info_string str ->
      let n = String.length str in
      let payload = Bytes.create (1 + n) in
      Bytes.set payload 0 '\000';
      Bytes.blit_string str 0 payload 1 n;
      payload
  | Info_int v ->
      let payload = Bytes.create 9 in
      Bytes.set payload 0 '\001';
      Bytes.set_int64_le payload 1 (Int64.of_int v);
      payload

let decode_info payload =
  if Bytes.length payload < 1 then raise Server.Bad_args;
  match Bytes.get payload 0 with
  | '\000' -> Info_string (Bytes.sub_string payload 1 (Bytes.length payload - 1))
  | '\001' ->
      if Bytes.length payload <> 9 then raise Server.Bad_args;
      Info_int (Int64.to_int (Bytes.get_int64_le payload 1))
  | _ -> raise Server.Bad_args

(* Kernel-argument payload for clSetKernelArg: tag byte + 8-byte value. *)
let encode_kernel_arg arg =
  let payload = Bytes.create 9 in
  let tag, v =
    match arg with
    | Arg_mem m -> (0, Int64.of_int m)
    | Arg_int n -> (1, Int64.of_int n)
    | Arg_float f -> (2, Int64.bits_of_float f)
    | Arg_local n -> (3, Int64.of_int n)
  in
  Bytes.set payload 0 (Char.chr tag);
  Bytes.set_int64_le payload 1 v;
  payload

(* Mem handles come back unresolved: the server resolves the guest id
   through its handle map. *)
let decode_kernel_arg payload =
  if Bytes.length payload <> 9 then raise Server.Bad_args;
  let v = Bytes.get_int64_le payload 1 in
  match Char.code (Bytes.get payload 0) with
  | 0 -> `Mem (Int64.to_int v)
  | 1 -> `Int (Int64.to_int v)
  | 2 -> `Float (Int64.float_of_bits v)
  | 3 -> `Local (Int64.to_int v)
  | _ -> raise Server.Bad_args

(* --- the table ---------------------------------------------------------- *)

(* A creating call's errcode_ret out-parameter comes back as success. *)
let created = Fresh [ i 0 ]

(* Platforms and devices: their ids cross unresolved. *)
let clGetPlatformIDs =
  fn0 "clGetPlatformIDs" [ Const (i 16); Out; Out ] (Ret (Sized Handles))
    (fun (module CL) -> CL.clGetPlatformIDs ())
let clGetPlatformInfo =
  fn2 "clGetPlatformInfo"
    [ A Raw; B (Enum platform_info); Const (i 256); Out ] (Ret Str)
    (fun (module CL) -> CL.clGetPlatformInfo)
let clGetDeviceIDs =
  fn2 "clGetDeviceIDs"
    [ A Raw; B (Enum device_type); Const (i 16); Out; Out ] (Ret (Sized Handles))
    (fun (module CL) -> CL.clGetDeviceIDs)
let clGetDeviceInfo =
  fn2 "clGetDeviceInfo"
    [ A Raw; B (Enum device_info); Const (i 256); Out ]
    (Ret (Coded (encode_info, decode_info)))
    (fun (module CL) -> CL.clGetDeviceInfo)

(* Contexts and command queues. *)
let clCreateContext =
  fn1 "clCreateContext" [ A (Sized Handles); Out ] created
    (fun (module CL) -> CL.clCreateContext)
let clRetainContext =
  on_handle "clRetainContext" (fun (module CL) -> CL.clRetainContext)
let clReleaseContext =
  on_handle "clReleaseContext" (fun (module CL) -> CL.clReleaseContext)
let clGetContextInfo =
  fn1 "clGetContextInfo" [ A Handle; Out ] (Ret Int)
    (fun (module CL) -> CL.clGetContextInfo)
let clCreateCommandQueue =
  fn3 "clCreateCommandQueue" [ A Handle; B Handle; C (Flag 2); Out ] created
    (fun (module CL) c d profiling -> CL.clCreateCommandQueue c d ~profiling)
let clRetainCommandQueue =
  on_handle "clRetainCommandQueue" (fun (module CL) -> CL.clRetainCommandQueue)
let clReleaseCommandQueue =
  on_handle "clReleaseCommandQueue" (fun (module CL) ->
      CL.clReleaseCommandQueue)

(* By hand: the reply maps the host context back to its virtual id. *)
let get_queue_info =
  by_hand "clGetCommandQueueInfo" (fun _ ctx { api = (module CL); _ } args ->
      match args with
      | [ q; _ ] ->
          of_result (CL.clGetCommandQueueInfo (resolve ctx (to_i q)))
            (fun host_ctx ->
              match Server.Ctx.reverse ctx ~host:host_ctx with
              | Some vid -> ok_ret (i 0) [ h vid ]
              | None -> ok_ret (i 0) [ h host_ctx ])
      | _ -> raise Server.Bad_args)

(* Memory objects, programs and kernels. *)
let clCreateBuffer =
  fn2 "clCreateBuffer" [ A Handle; Const (i 0); B Int; Out ] created
    (fun (module CL) c size -> CL.clCreateBuffer c ~size)
let clRetainMemObject =
  on_handle "clRetainMemObject" (fun (module CL) -> CL.clRetainMemObject)
let clReleaseMemObject =
  on_handle "clReleaseMemObject" (fun (module CL) -> CL.clReleaseMemObject)
let clGetMemObjectInfo =
  fn1 "clGetMemObjectInfo" [ A Handle; Out ] (Ret Int)
    (fun (module CL) -> CL.clGetMemObjectInfo)
let clCreateProgramWithSource =
  fn2 "clCreateProgramWithSource" [ A Handle; B (Sized Str); Out ] created
    (fun (module CL) c source -> CL.clCreateProgramWithSource c ~source)
let clBuildProgram =
  fn2 "clBuildProgram" [ A Handle; B (Sized Str) ] Done
    (fun (module CL) p options -> CL.clBuildProgram p ~options)
let clGetProgramBuildInfo =
  fn1 "clGetProgramBuildInfo" [ A Handle; Const (i 4096); Out ] (Ret Str)
    (fun (module CL) -> CL.clGetProgramBuildInfo)
let clRetainProgram =
  on_handle "clRetainProgram" (fun (module CL) -> CL.clRetainProgram)
let clReleaseProgram =
  on_handle "clReleaseProgram" (fun (module CL) -> CL.clReleaseProgram)
let clCreateKernel =
  fn2 "clCreateKernel" [ A Handle; B (Sized Str); Out ] created
    (fun (module CL) p name -> CL.clCreateKernel p ~name)
let clRetainKernel =
  on_handle "clRetainKernel" (fun (module CL) -> CL.clRetainKernel)
let clReleaseKernel =
  on_handle "clReleaseKernel" (fun (module CL) -> CL.clReleaseKernel)
let clGetKernelInfo =
  fn1 "clGetKernelInfo" [ A Handle; Const (i 256); Out ] (Ret Str)
    (fun (module CL) -> CL.clGetKernelInfo)
let clGetKernelWorkGroupInfo =
  fn2 "clGetKernelWorkGroupInfo" [ A Handle; B Handle; Out ] (Ret Int)
    (fun (module CL) -> CL.clGetKernelWorkGroupInfo)

(* By hand: a mem argument inside the payload is resolved, and touched
   for swapping. *)
let set_kernel_arg =
  by_hand "clSetKernelArg" (fun _ ctx ({ api = (module CL); _ } as st) args ->
      match args with
      | [ k; idx; _size; payload ] ->
          let arg =
            match decode_kernel_arg (to_b payload) with
            | `Mem vid -> Arg_mem (used ctx st vid)
            | `Int v -> Arg_int v
            | `Float f -> Arg_float f
            | `Local n -> Arg_local n
          in
          of_result
            (CL.clSetKernelArg (resolve ctx (to_i k)) ~index:(to_i idx) arg)
            (fun () -> ok_unit)
      | _ -> raise Server.Bad_args)

(* By hand: the enqueues.  An event out-parameter is a guest-assigned id
   the server binds to the host event, a used buffer is touched for
   swapping, and a read's or write's synchrony follows its blocking
   argument. *)
let bind_event ctx ev_arg host_ev =
  match (ev_arg, host_ev) with
  | Wire.Handle gid, Some hev ->
      Server.Ctx.bind ctx ~guest:(Int64.to_int gid) ~host:hev
  | Wire.Unit, _ | _, None -> ()
  | _ -> raise Server.Bad_args

let want_event = function
  | Wire.Handle _ -> true
  | Wire.Unit -> false
  | _ -> raise Server.Bad_args

let enqueued ctx ev r =
  of_result r (fun host_ev ->
      bind_event ctx ev host_ev;
      ok_unit)

let enqueue_nd_range =
  by_hand "clEnqueueNDRangeKernel" (fun _ ctx { api = (module CL); _ } args ->
      match args with
      | [ q; k; gws; lws; _nwl; wl; ev ] ->
          enqueued ctx ev
            (CL.clEnqueueNDRangeKernel (resolve ctx (to_i q))
               (resolve ctx (to_i k))
               ~global_work_size:(to_i gws) ~local_work_size:(to_i lws)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
      | _ -> raise Server.Bad_args)

let enqueue_task =
  by_hand "clEnqueueTask" (fun _ ctx { api = (module CL); _ } args ->
      match args with
      | [ q; k; _nwl; wl; ev ] ->
          enqueued ctx ev
            (CL.clEnqueueTask (resolve ctx (to_i q)) (resolve ctx (to_i k))
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
      | _ -> raise Server.Bad_args)

let enqueue_read =
  by_hand "clEnqueueReadBuffer" (fun _ ctx ({ api = (module CL); _ } as st) args ->
      match args with
      | [ q; m; _blocking; off; size; _ptr; _nwl; wl; ev ] ->
          let host_m = used ctx st (to_i m) in
          (* Execute blocking regardless: the reply must carry the data.
             The guest still gets the asynchronous-forwarding win — it
             did not wait for this execution. *)
          of_result
            (CL.clEnqueueReadBuffer (resolve ctx (to_i q)) host_m
               ~blocking:true ~offset:(to_i off) ~size:(to_i size)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun (data, host_ev) ->
              bind_event ctx ev host_ev;
              ok_ret (i 0) [ b data ])
      | _ -> raise Server.Bad_args)

let enqueue_write =
  by_hand "clEnqueueWriteBuffer" (fun _ ctx ({ api = (module CL); _ } as st) args ->
      match args with
      | [ q; m; blocking; off; _size; data; _nwl; wl; ev ] ->
          let host_m = used ctx st (to_i m) in
          enqueued ctx ev
            (CL.clEnqueueWriteBuffer (resolve ctx (to_i q)) host_m
               ~blocking:(to_i blocking = 1)
               ~offset:(to_i off) ~src:(to_b data)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
      | _ -> raise Server.Bad_args)

let enqueue_copy =
  by_hand "clEnqueueCopyBuffer" (fun _ ctx ({ api = (module CL); _ } as st) args ->
      match args with
      | [ q; src; dst; soff; doff; size; _nwl; wl; ev ] ->
          let host_src = resolve ctx (to_i src) in
          let host_dst = resolve ctx (to_i dst) in
          swap_touch st host_src;
          swap_touch st host_dst;
          enqueued ctx ev
            (CL.clEnqueueCopyBuffer (resolve ctx (to_i q)) ~src:host_src
               ~dst:host_dst ~src_offset:(to_i soff) ~dst_offset:(to_i doff)
               ~size:(to_i size)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
      | _ -> raise Server.Bad_args)

let enqueue_fill =
  by_hand "clEnqueueFillBuffer" (fun _ ctx ({ api = (module CL); _ } as st) args ->
      match args with
      | [ q; m; pattern; off; size; _nwl; wl; ev ] ->
          let host_m = used ctx st (to_i m) in
          enqueued ctx ev
            (CL.clEnqueueFillBuffer (resolve ctx (to_i q)) host_m
               ~pattern:(Char.chr (to_i pattern land 0xff))
               ~offset:(to_i off) ~size:(to_i size)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
      | _ -> raise Server.Bad_args)

(* Synchronization and events. *)
let clFlush = on_handle "clFlush" (fun (module CL) -> CL.clFlush)
let clFinish = on_handle "clFinish" (fun (module CL) -> CL.clFinish)
let clWaitForEvents =
  fn1 "clWaitForEvents" [ A (Counted Handles) ] Done
    (fun (module CL) -> CL.clWaitForEvents)
let clGetEventInfo =
  fn1 "clGetEventInfo" [ A Handle; Out ] (Ret (Enum event_status))
    (fun (module CL) -> CL.clGetEventInfo)
let clGetEventProfilingInfo =
  fn2 "clGetEventProfilingInfo" [ A Handle; B (Enum profiling_info); Out ]
    (Ret Int) (fun (module CL) -> CL.clGetEventProfilingInfo)
let clReleaseEvent =
  on_handle "clReleaseEvent" (fun (module CL) -> CL.clReleaseEvent)

(* Live-object accessors for migration: device buffers, moved over the
   owning device's DMA path. *)
let live =
  let kd st = Ava_simcl.Native.kdriver st.native in
  let find st host = Ava_simcl.Native.find_mem st.native host in
  {
    Silo.alloc_fn = name clCreateBuffer;
    size_arg = 2;
    quiesce = (fun st -> Ava_simcl.Native.quiesce st.native);
    read =
      (fun st ~host ~size ->
        Option.map
          (fun buf ->
            let dst = Bytes.create size in
            Ava_simcl.Kdriver.read_into (kd st) ~buf ~offset:0 ~dst;
            dst)
          (find st host));
    write =
      (fun st ~host data ->
        Option.map
          (fun buf ->
            Ava_simcl.Kdriver.write_buffer (kd st) ~buf ~offset:0 ~src:data;
            Bytes.length data)
          (find st host));
  }

(* --- the guest library ------------------------------------------------------ *)

let bool_int b = if b then 1 else 0

let create stub =
  let module M = struct
    let clGetPlatformIDs () = call0 stub clGetPlatformIDs ()
    let clGetPlatformInfo p info = call2 stub clGetPlatformInfo p info
    let clGetDeviceIDs p ty = call2 stub clGetDeviceIDs p ty
    let clGetDeviceInfo d info = call2 stub clGetDeviceInfo d info
    let clCreateContext devices = call1 stub clCreateContext devices
    let clRetainContext c = call1 stub clRetainContext c
    let clReleaseContext c = call1 stub clReleaseContext c
    let clGetContextInfo c = call1 stub clGetContextInfo c

    let clCreateCommandQueue c d ~profiling =
      call3 stub clCreateCommandQueue c d profiling

    let clRetainCommandQueue q = call1 stub clRetainCommandQueue q
    let clReleaseCommandQueue q = call1 stub clReleaseCommandQueue q

    let clGetCommandQueueInfo q =
      call stub ~fn:get_queue_info ~args:[ h q; u ] cannot_forward
        (fun _ reply -> Ok (to_i (out reply 0)))

    let clCreateBuffer c ~size = call2 stub clCreateBuffer c size
    let clRetainMemObject m = call1 stub clRetainMemObject m
    let clReleaseMemObject m = call1 stub clReleaseMemObject m
    let clGetMemObjectInfo m = call1 stub clGetMemObjectInfo m

    let clCreateProgramWithSource c ~source =
      call2 stub clCreateProgramWithSource c source

    let clBuildProgram p ~options = call2 stub clBuildProgram p options
    let clGetProgramBuildInfo p = call1 stub clGetProgramBuildInfo p
    let clRetainProgram p = call1 stub clRetainProgram p
    let clReleaseProgram p = call1 stub clReleaseProgram p
    let clCreateKernel p ~name = call2 stub clCreateKernel p name
    let clRetainKernel k = call1 stub clRetainKernel k
    let clReleaseKernel k = call1 stub clReleaseKernel k

    let clSetKernelArg k ~index arg =
      let payload = encode_kernel_arg arg in
      call stub ~fn:set_kernel_arg
        ~args:[ h k; i index; i (Bytes.length payload); b payload ]
        (Ok ()) keep

    let clGetKernelInfo k = call1 stub clGetKernelInfo k
    let clGetKernelWorkGroupInfo k d = call2 stub clGetKernelWorkGroupInfo k d

    (* An enqueue ends with its wait list and its event out-parameter: a
       guest id assigned here when the caller wants an event, so even a
       forwarded enqueue answers a usable handle. *)
    let event want_event =
      if want_event then Some (Stub.fresh_handle stub) else None

    let waits wait_list gid =
      [ i (List.length wait_list); l wait_list; Option.fold ~none:u ~some:h gid ]

    let enqueue fn gid args = call stub ~fn ~args (Ok gid) keep

    let clEnqueueNDRangeKernel q k ~global_work_size ~local_work_size
        ~wait_list ~want_event =
      let gid = event want_event in
      enqueue enqueue_nd_range gid
        (h q :: h k :: i global_work_size :: i local_work_size
        :: waits wait_list gid)

    let clEnqueueTask q k ~wait_list ~want_event =
      let gid = event want_event in
      enqueue enqueue_task gid (h q :: h k :: waits wait_list gid)

    (* The read also answers its data, in a buffer chosen by [blocking]:
       a waited read hands over the reply's blob, a forwarded one
       answers a buffer its reply fills later (the caller waits on the
       event or clFinish). *)
    let clEnqueueReadBuffer q m ~blocking ~offset ~size ~wait_list ~want_event
        =
      let gid = event want_event in
      let args =
        h q :: h m :: i (bool_int blocking) :: i offset :: i size :: u
        :: waits wait_list gid
      in
      let fresh () = Bytes.make (Stdlib.max 0 size) '\000' in
      let blit dst (reply : Message.reply) =
        match reply.Message.reply_outs with
        | Wire.Blob data :: _ when reply.Message.reply_status = 0 ->
            Bytes.blit data 0 dst 0
              (Stdlib.min (Bytes.length data) (Bytes.length dst))
        | _ -> ()
      in
      if blocking then
        (* The reply blob was decoded for this call alone: hand it over
           when it is exactly [size] bytes instead of copying it. *)
        call stub ~fn:enqueue_read ~args cannot_forward (fun _ reply ->
            match reply.Message.reply_outs with
            | Wire.Blob data :: _ when Bytes.length data = size ->
                Ok (data, gid)
            | _ ->
                let dst = fresh () in
                blit dst reply;
                Ok (dst, gid))
      else
        let dst = fresh () in
        call ~on_reply:(blit dst) stub ~fn:enqueue_read ~args (Ok (dst, gid))
          keep

    let clEnqueueWriteBuffer q m ~blocking ~offset ~src ~wait_list ~want_event
        =
      let gid = event want_event in
      enqueue enqueue_write gid
        (h q :: h m :: i (bool_int blocking) :: i offset :: i (Bytes.length src)
        :: b src :: waits wait_list gid)

    let clEnqueueCopyBuffer q ~src ~dst ~src_offset ~dst_offset ~size
        ~wait_list ~want_event =
      let gid = event want_event in
      enqueue enqueue_copy gid
        (h q :: h src :: h dst :: i src_offset :: i dst_offset :: i size
        :: waits wait_list gid)

    let clEnqueueFillBuffer q m ~pattern ~offset ~size ~wait_list ~want_event
        =
      let gid = event want_event in
      enqueue enqueue_fill gid
        (h q :: h m :: i (Char.code pattern) :: i offset :: i size
        :: waits wait_list gid)

    let clFlush q = call1 stub clFlush q
    let clFinish q = call1 stub clFinish q
    let clWaitForEvents evs = call1 stub clWaitForEvents evs
    let clGetEventInfo ev = call1 stub clGetEventInfo ev
    let clGetEventProfilingInfo ev info = call2 stub clGetEventProfilingInfo ev info
    let clReleaseEvent ev = call1 stub clReleaseEvent ev
  end in
  (module M : S)
