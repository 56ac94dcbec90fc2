(* Metering wrappers around each silo's guest API.  Every call runs the
   self-test's injected fault (a no-op in real runs) and, in a traced
   run, records one span under its guest's current parent span; the
   data-carrying calls also add their payload bytes to [Meter.payload].
   The wrapped module is what the workload programs see, on the
   remoted and the native stacks alike. *)

type ctx = { parent : int ref; label : string }

let ctx label = { parent = ref (-1); label }

let call c f =
  Meter.span ~parent:!(c.parent) c.label (fun () ->
      !Meter.inject ();
      f ())

let count_bytes r b =
  (match r with Ok _ -> Meter.add_payload b | Error _ -> ());
  r

module type CTX = sig
  val c : ctx
end

module Cl (C : CTX) (A : Ava_simcl.Api.S) : Ava_simcl.Api.S = struct
  let w f = call C.c f
  let clGetPlatformIDs () = w (fun () -> A.clGetPlatformIDs ())
  let clGetPlatformInfo p i = w (fun () -> A.clGetPlatformInfo p i)
  let clGetDeviceIDs p t = w (fun () -> A.clGetDeviceIDs p t)
  let clGetDeviceInfo d i = w (fun () -> A.clGetDeviceInfo d i)
  let clCreateContext ds = w (fun () -> A.clCreateContext ds)
  let clRetainContext x = w (fun () -> A.clRetainContext x)
  let clReleaseContext x = w (fun () -> A.clReleaseContext x)
  let clGetContextInfo x = w (fun () -> A.clGetContextInfo x)

  let clCreateCommandQueue ctx d ~profiling =
    w (fun () -> A.clCreateCommandQueue ctx d ~profiling)

  let clRetainCommandQueue q = w (fun () -> A.clRetainCommandQueue q)
  let clReleaseCommandQueue q = w (fun () -> A.clReleaseCommandQueue q)
  let clGetCommandQueueInfo q = w (fun () -> A.clGetCommandQueueInfo q)
  let clCreateBuffer ctx ~size = w (fun () -> A.clCreateBuffer ctx ~size)
  let clRetainMemObject x = w (fun () -> A.clRetainMemObject x)
  let clReleaseMemObject x = w (fun () -> A.clReleaseMemObject x)
  let clGetMemObjectInfo x = w (fun () -> A.clGetMemObjectInfo x)

  let clCreateProgramWithSource ctx ~source =
    w (fun () -> A.clCreateProgramWithSource ctx ~source)

  let clBuildProgram p ~options = w (fun () -> A.clBuildProgram p ~options)
  let clGetProgramBuildInfo p = w (fun () -> A.clGetProgramBuildInfo p)
  let clRetainProgram p = w (fun () -> A.clRetainProgram p)
  let clReleaseProgram p = w (fun () -> A.clReleaseProgram p)
  let clCreateKernel p ~name = w (fun () -> A.clCreateKernel p ~name)
  let clRetainKernel k = w (fun () -> A.clRetainKernel k)
  let clReleaseKernel k = w (fun () -> A.clReleaseKernel k)
  let clSetKernelArg k ~index a = w (fun () -> A.clSetKernelArg k ~index a)
  let clGetKernelInfo k = w (fun () -> A.clGetKernelInfo k)
  let clGetKernelWorkGroupInfo k d = w (fun () -> A.clGetKernelWorkGroupInfo k d)

  let clEnqueueNDRangeKernel q k ~global_work_size ~local_work_size ~wait_list
      ~want_event =
    w (fun () ->
        A.clEnqueueNDRangeKernel q k ~global_work_size ~local_work_size
          ~wait_list ~want_event)

  let clEnqueueTask q k ~wait_list ~want_event =
    w (fun () -> A.clEnqueueTask q k ~wait_list ~want_event)

  let clEnqueueReadBuffer q m ~blocking ~offset ~size ~wait_list ~want_event =
    count_bytes
      (w (fun () ->
           A.clEnqueueReadBuffer q m ~blocking ~offset ~size ~wait_list
             ~want_event))
      size

  let clEnqueueWriteBuffer q m ~blocking ~offset ~src ~wait_list ~want_event =
    count_bytes
      (w (fun () ->
           A.clEnqueueWriteBuffer q m ~blocking ~offset ~src ~wait_list
             ~want_event))
      (Bytes.length src)

  let clEnqueueCopyBuffer q ~src ~dst ~src_offset ~dst_offset ~size ~wait_list
      ~want_event =
    w (fun () ->
        A.clEnqueueCopyBuffer q ~src ~dst ~src_offset ~dst_offset ~size
          ~wait_list ~want_event)

  let clEnqueueFillBuffer q m ~pattern ~offset ~size ~wait_list ~want_event =
    w (fun () ->
        A.clEnqueueFillBuffer q m ~pattern ~offset ~size ~wait_list ~want_event)

  let clFlush q = w (fun () -> A.clFlush q)
  let clFinish q = w (fun () -> A.clFinish q)
  let clWaitForEvents es = w (fun () -> A.clWaitForEvents es)
  let clGetEventInfo e = w (fun () -> A.clGetEventInfo e)
  let clGetEventProfilingInfo e i = w (fun () -> A.clGetEventProfilingInfo e i)
  let clReleaseEvent e = w (fun () -> A.clReleaseEvent e)
end

module Nc (C : CTX) (A : Ava_simnc.Api.S) : Ava_simnc.Api.S = struct
  let w f = call C.c f
  let mvncGetDeviceName ~index = w (fun () -> A.mvncGetDeviceName ~index)
  let mvncOpenDevice ~name = w (fun () -> A.mvncOpenDevice ~name)
  let mvncCloseDevice d = w (fun () -> A.mvncCloseDevice d)

  let mvncAllocateGraph d ~graph_data =
    count_bytes
      (w (fun () -> A.mvncAllocateGraph d ~graph_data))
      (Bytes.length graph_data)

  let mvncDeallocateGraph g = w (fun () -> A.mvncDeallocateGraph g)

  let mvncLoadTensor g ~tensor =
    count_bytes (w (fun () -> A.mvncLoadTensor g ~tensor)) (Bytes.length tensor)

  let mvncGetResult g =
    let r = w (fun () -> A.mvncGetResult g) in
    (match r with Ok b -> Meter.add_payload (Bytes.length b) | Error _ -> ());
    r

  let mvncGetGraphOption g o = w (fun () -> A.mvncGetGraphOption g o)
  let mvncSetGraphOption g o v = w (fun () -> A.mvncSetGraphOption g o v)
  let mvncGetDeviceOption d o = w (fun () -> A.mvncGetDeviceOption d o)
end

module Qa (C : CTX) (A : Ava_simqa.Api.S) : Ava_simqa.Api.S = struct
  let w f = call C.c f
  let moved src r =
    (match r with
    | Ok b -> Meter.add_payload (Bytes.length src + Bytes.length b)
    | Error _ -> ());
    r

  let qaGetNumInstances () = w (fun () -> A.qaGetNumInstances ())
  let qaStartInstance ~index = w (fun () -> A.qaStartInstance ~index)
  let qaStopInstance i = w (fun () -> A.qaStopInstance i)
  let qaCreateSession i d ~level = w (fun () -> A.qaCreateSession i d ~level)
  let qaRemoveSession s = w (fun () -> A.qaRemoveSession s)
  let qaCompress s ~src = moved src (w (fun () -> A.qaCompress s ~src))
  let qaDecompress s ~src = moved src (w (fun () -> A.qaDecompress s ~src))

  let qaSubmitCompress s ~src ~tag ~callback =
    count_bytes
      (w (fun () -> A.qaSubmitCompress s ~src ~tag ~callback))
      (Bytes.length src)

  let qaGetStats i = w (fun () -> A.qaGetStats i)
  let qaGetStatsEx i = w (fun () -> A.qaGetStatsEx i)
end

module St (C : CTX) (A : Ava_simst.Api.S) : Ava_simst.Api.S = struct
  let w f = call C.c f
  let stDeviceGetCount () = w (fun () -> A.stDeviceGetCount ())
  let stStreamCreate () = w (fun () -> A.stStreamCreate ())
  let stStreamDestroy s = w (fun () -> A.stStreamDestroy s)
  let stStreamSynchronize s = w (fun () -> A.stStreamSynchronize s)
  let stEventCreate () = w (fun () -> A.stEventCreate ())
  let stEventDestroy e = w (fun () -> A.stEventDestroy e)
  let stEventRecord e s = w (fun () -> A.stEventRecord e s)
  let stEventSynchronize e = w (fun () -> A.stEventSynchronize e)
  let stStreamWaitEvent s e = w (fun () -> A.stStreamWaitEvent s e)
  let stMemAlloc ~size = w (fun () -> A.stMemAlloc ~size)
  let stMemFree m = w (fun () -> A.stMemFree m)

  let stMemcpyHtoDAsync m ~src s =
    count_bytes (w (fun () -> A.stMemcpyHtoDAsync m ~src s)) (Bytes.length src)

  let stMemcpyDtoH ~size m = count_bytes (w (fun () -> A.stMemcpyDtoH ~size m)) size

  let stLaunchKernel s ~name ~a ~b ~out ~n =
    w (fun () -> A.stLaunchKernel s ~name ~a ~b ~out ~n)

  let stBatchSubmit s ~batch ~item_size =
    count_bytes
      (w (fun () -> A.stBatchSubmit s ~batch ~item_size))
      (Bytes.length batch)

  let stBatchCollect s ~ticket ~size =
    count_bytes (w (fun () -> A.stBatchCollect s ~ticket ~size)) size
end

let cl c (module A : Ava_simcl.Api.S) =
  (module Cl (struct let c = c end) (A) : Ava_simcl.Api.S)

let nc c (module A : Ava_simnc.Api.S) =
  (module Nc (struct let c = c end) (A) : Ava_simnc.Api.S)

let qa c (module A : Ava_simqa.Api.S) =
  (module Qa (struct let c = c end) (A) : Ava_simqa.Api.S)

let st c (module A : Ava_simst.Api.S) =
  (module St (struct let c = c end) (A) : Ava_simst.Api.S)
