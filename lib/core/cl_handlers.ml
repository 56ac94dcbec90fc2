(* The AvA-generated API server dispatch for SimCL.

   Each handler unmarshals one function's arguments (layout mirrors
   {!Cl_remote}), resolves virtual ids through the per-VM context, runs
   the call against that VM's private native SimCL instance (process
   isolation), and marshals the reply.

   Optional buffer-granularity swapping (§4.3) hooks allocation, use and
   release of memory objects. *)

module Wire = Ava_remoting.Wire
module Server = Ava_remoting.Server
module Swap = Ava_remoting.Swap

open Ava_simcl.Types
open Codec

type state = {
  api : (module Ava_simcl.Api.S);
  native : Ava_simcl.Native.st;
  swap : Swap.t option;
}

(* Thread the VM id down to the device layer as the submitting client, so
   per-client fault targeting (and TDR blame) can tell tenants apart. *)
let make_state ?swap kd ~vm_id =
  let api, native = Ava_simcl.Native.create ~client:vm_id kd in
  { api; native; swap }

include Silo.Handler (struct
  type error = Ava_simcl.Types.error

  let to_code = error_to_code
end)

(* Swap keys combine VM id and host handle so one manager can serve all
   VMs sharing the device. *)
let swap_key_base = 1_000_000
let swap_key ctx host = (Server.Ctx.vm ctx * swap_key_base) + host

let forget_swap sw ~vm_id =
  Swap.remove_if sw (fun key -> key / swap_key_base = vm_id)

let swap_add ctx st ~host ~bytes =
  match st.swap with
  | None -> ()
  | Some sw -> (
      match Swap.add sw ~key:(swap_key ctx host) ~bytes with
      | Ok () | Error `Too_big -> ())

let swap_touch ctx st host =
  match st.swap with
  | None -> ()
  | Some sw -> ignore (Swap.touch sw ~key:(swap_key ctx host))

let swap_remove ctx st host =
  match st.swap with
  | None -> ()
  | Some sw -> Swap.remove sw ~key:(swap_key ctx host)

(* Live-object accessors for migration: device buffers, moved over the
   owning device's DMA path. *)
let live =
  let kd st = Ava_simcl.Native.kdriver st.native in
  let find st host = Ava_simcl.Native.find_mem st.native host in
  {
    Silo.alloc_fn = "clCreateBuffer";
    size_arg = 2;
    quiesce = (fun st -> Ava_simcl.Native.quiesce st.native);
    read =
      (fun st ~host ~size ->
        Option.map
          (fun buf ->
            Ava_simcl.Kdriver.read_buffer (kd st) ~buf ~offset:0 ~len:size)
          (find st host));
    write =
      (fun st ~host data ->
        Option.map
          (fun buf ->
            Ava_simcl.Kdriver.write_buffer (kd st) ~buf ~offset:0 ~src:data;
            Bytes.length data)
          (find st host));
  }

let register server =
  let reg = Server.register server in
  let one_handle name f = reg name (on_handle (fun st -> f st.api)) in

  (* --- platform / device ----------------------------------------------- *)
  reg "clGetPlatformIDs" (fun _ctx st args ->
      match args with
      | [ _n; _; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetPlatformIDs ()) (fun ps ->
              ok_ret (i 0) [ l ps; i (List.length ps) ])
      | _ -> raise Bad_args);

  reg "clGetPlatformInfo" (fun _ctx st args ->
      match args with
      | [ p; pn; _vs; _ ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clGetPlatformInfo (to_h p) (platform_info_of_int (to_i pn)))
            (fun str -> ok_ret (i 0) [ b (Bytes.of_string str) ])
      | _ -> raise Bad_args);

  reg "clGetDeviceIDs" (fun _ctx st args ->
      match args with
      | [ p; ty; _ne; _; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetDeviceIDs (to_h p) (device_type_of_int (to_i ty)))
            (fun ds -> ok_ret (i 0) [ l ds; i (List.length ds) ])
      | _ -> raise Bad_args);

  reg "clGetDeviceInfo" (fun _ctx st args ->
      match args with
      | [ d; pn; _vs; _ ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clGetDeviceInfo (to_h d) (device_info_of_int (to_i pn)))
            (fun info -> ok_ret (i 0) [ b (encode_info info) ])
      | _ -> raise Bad_args);

  (* --- contexts ---------------------------------------------------------- *)
  reg "clCreateContext" (fun ctx st args ->
      match args with
      | [ devs; _n; _err ] ->
          let module CL = (val st.api) in
          of_result (CL.clCreateContext (resolve_list ctx (to_l devs)))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  one_handle "clRetainContext" (fun (module CL) -> CL.clRetainContext);
  one_handle "clReleaseContext" (fun (module CL) -> CL.clReleaseContext);

  reg "clGetContextInfo" (fun ctx st args ->
      match args with
      | [ c; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetContextInfo (resolve ctx (to_h c))) (fun refs ->
              ok_ret (i 0) [ i refs ])
      | _ -> raise Bad_args);

  (* --- command queues ----------------------------------------------------- *)
  reg "clCreateCommandQueue" (fun ctx st args ->
      match args with
      | [ c; d; props; _err ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clCreateCommandQueue (resolve ctx (to_h c))
               (resolve ctx (to_h d))
               ~profiling:(to_i props land 2 <> 0))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  one_handle "clRetainCommandQueue" (fun (module CL) ->
      CL.clRetainCommandQueue);
  one_handle "clReleaseCommandQueue" (fun (module CL) ->
      CL.clReleaseCommandQueue);

  reg "clGetCommandQueueInfo" (fun ctx st args ->
      match args with
      | [ q; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetCommandQueueInfo (resolve ctx (to_h q)))
            (fun host_ctx ->
              match Server.Ctx.reverse ctx ~host:host_ctx with
              | Some vid -> ok_ret (i 0) [ h vid ]
              | None -> ok_ret (i 0) [ h host_ctx ])
      | _ -> raise Bad_args);

  (* --- memory objects ------------------------------------------------------ *)
  reg "clCreateBuffer" (fun ctx st args ->
      match args with
      | [ c; _flags; size; _err ] ->
          let module CL = (val st.api) in
          of_result (CL.clCreateBuffer (resolve ctx (to_h c)) ~size:(to_i size))
            (fun host ->
              swap_add ctx st ~host ~bytes:(to_i size);
              ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  one_handle "clRetainMemObject" (fun (module CL) -> CL.clRetainMemObject);

  reg "clReleaseMemObject" (fun ctx st args ->
      match args with
      | [ m ] ->
          let module CL = (val st.api) in
          let host = resolve ctx (to_h m) in
          of_result (CL.clReleaseMemObject host) (fun () ->
              swap_remove ctx st host;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clGetMemObjectInfo" (fun ctx st args ->
      match args with
      | [ m; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetMemObjectInfo (resolve ctx (to_h m)))
            (fun size -> ok_ret (i 0) [ i size ])
      | _ -> raise Bad_args);

  (* --- programs -------------------------------------------------------------- *)
  reg "clCreateProgramWithSource" (fun ctx st args ->
      match args with
      | [ c; src; _len; _err ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clCreateProgramWithSource (resolve ctx (to_h c))
               ~source:(Bytes.to_string (to_b src)))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  reg "clBuildProgram" (fun ctx st args ->
      match args with
      | [ p; opts; _len ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clBuildProgram (resolve ctx (to_h p))
               ~options:(Bytes.to_string (to_b opts)))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "clGetProgramBuildInfo" (fun ctx st args ->
      match args with
      | [ p; _vs; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetProgramBuildInfo (resolve ctx (to_h p)))
            (fun log -> ok_ret (i 0) [ b (Bytes.of_string log) ])
      | _ -> raise Bad_args);

  one_handle "clRetainProgram" (fun (module CL) -> CL.clRetainProgram);
  one_handle "clReleaseProgram" (fun (module CL) -> CL.clReleaseProgram);

  (* --- kernels ------------------------------------------------------------------ *)
  reg "clCreateKernel" (fun ctx st args ->
      match args with
      | [ p; name; _len; _err ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clCreateKernel (resolve ctx (to_h p))
               ~name:(Bytes.to_string (to_b name)))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  one_handle "clRetainKernel" (fun (module CL) -> CL.clRetainKernel);
  one_handle "clReleaseKernel" (fun (module CL) -> CL.clReleaseKernel);

  reg "clSetKernelArg" (fun ctx st args ->
      match args with
      | [ k; idx; _size; payload ] ->
          let module CL = (val st.api) in
          let arg =
            match decode_kernel_arg (to_b payload) with
            | `Mem vid ->
                let host = resolve ctx vid in
                swap_touch ctx st host;
                Arg_mem host
            | `Int v -> Arg_int v
            | `Float f -> Arg_float f
            | `Local n -> Arg_local n
          in
          of_result
            (CL.clSetKernelArg (resolve ctx (to_h k)) ~index:(to_i idx) arg)
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "clGetKernelInfo" (fun ctx st args ->
      match args with
      | [ k; _vs; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetKernelInfo (resolve ctx (to_h k))) (fun name ->
              ok_ret (i 0) [ b (Bytes.of_string name) ])
      | _ -> raise Bad_args);

  reg "clGetKernelWorkGroupInfo" (fun ctx st args ->
      match args with
      | [ k; d; _ ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clGetKernelWorkGroupInfo (resolve ctx (to_h k))
               (resolve ctx (to_h d)))
            (fun wg -> ok_ret (i 0) [ i wg ])
      | _ -> raise Bad_args);

  (* --- enqueue operations ----------------------------------------------------------- *)
  let bind_event ctx ev_arg host_ev =
    match (ev_arg, host_ev) with
    | Wire.Handle gid, Some hev ->
        Server.Ctx.bind ctx ~guest:(Int64.to_int gid) ~host:hev
    | Wire.Unit, _ | _, None -> ()
    | _ -> raise Bad_args
  in
  let want_event = function
    | Wire.Handle _ -> true
    | Wire.Unit -> false
    | _ -> raise Bad_args
  in

  reg "clEnqueueNDRangeKernel" (fun ctx st args ->
      match args with
      | [ q; k; gws; lws; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clEnqueueNDRangeKernel (resolve ctx (to_h q))
               (resolve ctx (to_h k))
               ~global_work_size:(to_i gws) ~local_work_size:(to_i lws)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clEnqueueTask" (fun ctx st args ->
      match args with
      | [ q; k; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clEnqueueTask (resolve ctx (to_h q)) (resolve ctx (to_h k))
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clEnqueueReadBuffer" (fun ctx st args ->
      match args with
      | [ q; m; _blocking; off; size; _ptr; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          let host_m = resolve ctx (to_h m) in
          swap_touch ctx st host_m;
          (* Execute blocking regardless: the reply must carry the data.
             The guest still gets the asynchronous-forwarding win — it
             did not wait for this execution. *)
          of_result
            (CL.clEnqueueReadBuffer (resolve ctx (to_h q)) host_m
               ~blocking:true ~offset:(to_i off) ~size:(to_i size)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun (data, host_ev) ->
              bind_event ctx ev host_ev;
              ok_ret (i 0) [ b data ])
      | _ -> raise Bad_args);

  reg "clEnqueueWriteBuffer" (fun ctx st args ->
      match args with
      | [ q; m; blocking; off; _size; data; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          let host_m = resolve ctx (to_h m) in
          swap_touch ctx st host_m;
          of_result
            (CL.clEnqueueWriteBuffer (resolve ctx (to_h q)) host_m
               ~blocking:(to_i blocking = 1)
               ~offset:(to_i off) ~src:(to_b data)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clEnqueueCopyBuffer" (fun ctx st args ->
      match args with
      | [ q; src; dst; soff; doff; size; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          let host_src = resolve ctx (to_h src) in
          let host_dst = resolve ctx (to_h dst) in
          swap_touch ctx st host_src;
          swap_touch ctx st host_dst;
          of_result
            (CL.clEnqueueCopyBuffer (resolve ctx (to_h q)) ~src:host_src
               ~dst:host_dst ~src_offset:(to_i soff) ~dst_offset:(to_i doff)
               ~size:(to_i size)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clEnqueueFillBuffer" (fun ctx st args ->
      match args with
      | [ q; m; pattern; off; size; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          let host_m = resolve ctx (to_h m) in
          swap_touch ctx st host_m;
          of_result
            (CL.clEnqueueFillBuffer (resolve ctx (to_h q)) host_m
               ~pattern:(Char.chr (to_i pattern land 0xff))
               ~offset:(to_i off) ~size:(to_i size)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  (* --- synchronization ----------------------------------------------------------------- *)
  one_handle "clFlush" (fun (module CL) -> CL.clFlush);
  one_handle "clFinish" (fun (module CL) -> CL.clFinish);

  reg "clWaitForEvents" (fun ctx st args ->
      match args with
      | [ _n; evs ] ->
          let module CL = (val st.api) in
          of_result (CL.clWaitForEvents (resolve_list ctx (to_l evs)))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  (* --- events ------------------------------------------------------------------------------ *)
  reg "clGetEventInfo" (fun ctx st args ->
      match args with
      | [ ev; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetEventInfo (resolve ctx (to_h ev))) (fun status ->
              ok_ret (i 0) [ i (event_status_to_int status) ])
      | _ -> raise Bad_args);

  reg "clGetEventProfilingInfo" (fun ctx st args ->
      match args with
      | [ ev; pn; _ ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clGetEventProfilingInfo (resolve ctx (to_h ev))
               (profiling_info_of_int (to_i pn)))
            (fun v -> ok_ret (i 0) [ i v ])
      | _ -> raise Bad_args);

  one_handle "clReleaseEvent" (fun (module CL) -> CL.clReleaseEvent)
