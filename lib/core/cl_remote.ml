(* The AvA-generated guest library for SimCL.

   Implements the full {!Ava_simcl.Api.S} over a {!Ava_remoting.Stub}:
   this is what the guest application links against instead of the vendor
   library.  Marshalling layout, synchrony and size accounting all follow
   the compiled plan of the refined CAvA spec (see {!Ava_spec.Specs}).

   Conventions:
   - one wire value per C parameter, in declaration order;
   - object-creating calls return server-assigned virtual ids;
   - event out-parameters are guest-assigned ids ([Stub.fresh_handle]) so
     asynchronously forwarded enqueues can hand back an event immediately;
   - asynchronously forwarded calls report failures via the stub's
     deferred-error channel, surfaced by the next synchronous call (the
     paper's fidelity caveat, §4.2). *)

module Stub = Ava_remoting.Stub
module Wire = Ava_remoting.Wire
module Message = Ava_remoting.Message

open Ava_simcl.Types
open Codec

include Silo.Guest (struct
  type error = Ava_simcl.Types.error

  let of_code = error_of_code
  let failure msg = Remoting_failure msg
end)

let bool_int b = if b then 1 else 0

type t = { stub : Stub.t }

(* A blob out-parameter read as a string. *)
let to_str v = Bytes.to_string (to_b v)

let create stub =
  let t = { stub } in
  let module M = struct
    (* --- platform / device ------------------------------------------- *)

    let clGetPlatformIDs () =
      sync t.stub ~fn:"clGetPlatformIDs" ~args:[ i 16; u; u ] (ret_out to_l 0)

    let clGetPlatformInfo p info =
      sync t.stub ~fn:"clGetPlatformInfo"
        ~args:[ h p; i (platform_info_to_int info); i 256; u ]
        (ret_out to_str 0)

    let clGetDeviceIDs p ty =
      sync t.stub ~fn:"clGetDeviceIDs"
        ~args:[ h p; i (device_type_to_int ty); i 16; u; u ]
        (ret_out to_l 0)

    let clGetDeviceInfo d info =
      sync t.stub ~fn:"clGetDeviceInfo"
        ~args:[ h d; i (device_info_to_int info); i 256; u ]
        (ret_out (fun v -> decode_info (to_b v)) 0)

    (* --- contexts ------------------------------------------------------ *)

    let clCreateContext devices =
      sync t.stub ~fn:"clCreateContext"
        ~args:[ l devices; i (List.length devices); u ]
        ret_handle

    let clRetainContext c = fire t.stub ~fn:"clRetainContext" ~args:[ h c ] ()
    let clReleaseContext c = fire t.stub ~fn:"clReleaseContext" ~args:[ h c ] ()

    let clGetContextInfo c =
      sync t.stub ~fn:"clGetContextInfo" ~args:[ h c; u ] (ret_out to_i 0)

    (* --- command queues ------------------------------------------------ *)

    let clCreateCommandQueue c d ~profiling =
      let props = if profiling then 2 else 0 in
      sync t.stub ~fn:"clCreateCommandQueue" ~args:[ h c; h d; i props; u ]
        ret_handle

    let clRetainCommandQueue q =
      fire t.stub ~fn:"clRetainCommandQueue" ~args:[ h q ] ()

    let clReleaseCommandQueue q =
      fire t.stub ~fn:"clReleaseCommandQueue" ~args:[ h q ] ()

    let clGetCommandQueueInfo q =
      sync t.stub ~fn:"clGetCommandQueueInfo" ~args:[ h q; u ] (ret_out to_i 0)

    (* --- memory objects ------------------------------------------------ *)

    let clCreateBuffer c ~size =
      sync t.stub ~fn:"clCreateBuffer" ~args:[ h c; i 0; i size; u ] ret_handle

    let clRetainMemObject m =
      fire t.stub ~fn:"clRetainMemObject" ~args:[ h m ] ()

    let clReleaseMemObject m =
      fire t.stub ~fn:"clReleaseMemObject" ~args:[ h m ] ()

    let clGetMemObjectInfo m =
      sync t.stub ~fn:"clGetMemObjectInfo" ~args:[ h m; u ] (ret_out to_i 0)

    (* --- programs ------------------------------------------------------ *)

    let clCreateProgramWithSource c ~source =
      sync t.stub ~fn:"clCreateProgramWithSource"
        ~args:[ h c; b (Bytes.of_string source); i (String.length source); u ]
        ret_handle

    let clBuildProgram p ~options =
      sync t.stub ~fn:"clBuildProgram"
        ~args:[ h p; b (Bytes.of_string options); i (String.length options) ]
        ret_unit

    let clGetProgramBuildInfo p =
      sync t.stub ~fn:"clGetProgramBuildInfo" ~args:[ h p; i 4096; u ]
        (ret_out to_str 0)

    let clRetainProgram p = fire t.stub ~fn:"clRetainProgram" ~args:[ h p ] ()
    let clReleaseProgram p = fire t.stub ~fn:"clReleaseProgram" ~args:[ h p ] ()

    (* --- kernels -------------------------------------------------------- *)

    let clCreateKernel p ~name =
      sync t.stub ~fn:"clCreateKernel"
        ~args:[ h p; b (Bytes.of_string name); i (String.length name); u ]
        ret_handle

    let clRetainKernel k = fire t.stub ~fn:"clRetainKernel" ~args:[ h k ] ()
    let clReleaseKernel k = fire t.stub ~fn:"clReleaseKernel" ~args:[ h k ] ()

    (* The paper's flagship async example: forwarded without waiting. *)
    let clSetKernelArg k ~index arg =
      let payload = encode_kernel_arg arg in
      fire t.stub ~fn:"clSetKernelArg"
        ~args:[ h k; i index; i (Bytes.length payload); b payload ]
        ()

    let clGetKernelInfo k =
      sync t.stub ~fn:"clGetKernelInfo" ~args:[ h k; i 256; u ]
        (ret_out to_str 0)

    let clGetKernelWorkGroupInfo k d =
      sync t.stub ~fn:"clGetKernelWorkGroupInfo" ~args:[ h k; h d; u ]
        (ret_out to_i 0)

    (* --- enqueue operations --------------------------------------------- *)

    (* Event out-parameters: pre-assign a guest id when the caller wants
       an event, so even async forwards return a usable handle. *)
    let event_arg ~want_event =
      if want_event then
        let gid = Stub.fresh_handle t.stub in
        (h gid, Some gid)
      else (u, None)

    let clEnqueueNDRangeKernel q k ~global_work_size ~local_work_size
        ~wait_list ~want_event =
      let ev, gid = event_arg ~want_event in
      fire t.stub ~fn:"clEnqueueNDRangeKernel"
        ~args:
          [
            h q; h k; i global_work_size; i local_work_size;
            i (List.length wait_list); l wait_list; ev;
          ]
        gid

    let clEnqueueTask q k ~wait_list ~want_event =
      let ev, gid = event_arg ~want_event in
      fire t.stub ~fn:"clEnqueueTask"
        ~args:[ h q; h k; i (List.length wait_list); l wait_list; ev ]
        gid

    let clEnqueueReadBuffer q m ~blocking ~offset ~size ~wait_list ~want_event
        =
      let ev, gid = event_arg ~want_event in
      let args =
        [
          h q; h m; i (bool_int blocking); i offset; i size; u;
          i (List.length wait_list); l wait_list; ev;
        ]
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
        sync t.stub ~fn:"clEnqueueReadBuffer" ~args (fun reply ->
            match reply.Message.reply_outs with
            | Wire.Blob data :: _ when Bytes.length data = size ->
                Ok (data, gid)
            | _ ->
                let dst = fresh () in
                blit dst reply;
                Ok (dst, gid))
      else
        (* Asynchronously forwarded: the data lands in [dst] when the
           reply arrives; callers must wait on the event or clFinish. *)
        let dst = fresh () in
        fire t.stub ~on_reply:(blit dst) ~fn:"clEnqueueReadBuffer" ~args
          (dst, gid)

    let clEnqueueWriteBuffer q m ~blocking ~offset ~src ~wait_list ~want_event
        =
      let ev, gid = event_arg ~want_event in
      let args =
        [
          h q; h m; i (bool_int blocking); i offset; i (Bytes.length src);
          b src; i (List.length wait_list); l wait_list; ev;
        ]
      in
      if blocking then
        sync t.stub ~fn:"clEnqueueWriteBuffer" ~args (fun _ -> Ok gid)
      else fire t.stub ~fn:"clEnqueueWriteBuffer" ~args gid

    let clEnqueueCopyBuffer q ~src ~dst ~src_offset ~dst_offset ~size
        ~wait_list ~want_event =
      let ev, gid = event_arg ~want_event in
      fire t.stub ~fn:"clEnqueueCopyBuffer"
        ~args:
          [
            h q; h src; h dst; i src_offset; i dst_offset; i size;
            i (List.length wait_list); l wait_list; ev;
          ]
        gid

    let clEnqueueFillBuffer q m ~pattern ~offset ~size ~wait_list ~want_event
        =
      let ev, gid = event_arg ~want_event in
      fire t.stub ~fn:"clEnqueueFillBuffer"
        ~args:
          [
            h q; h m; i (Char.code pattern); i offset; i size;
            i (List.length wait_list); l wait_list; ev;
          ]
        gid

    (* --- synchronization ------------------------------------------------ *)

    let clFlush q = fire t.stub ~fn:"clFlush" ~args:[ h q ] ()
    let clFinish q = sync t.stub ~fn:"clFinish" ~args:[ h q ] ret_unit

    let clWaitForEvents events =
      sync t.stub ~fn:"clWaitForEvents"
        ~args:[ i (List.length events); l events ]
        ret_unit

    (* --- events ---------------------------------------------------------- *)

    let clGetEventInfo ev =
      sync t.stub ~fn:"clGetEventInfo" ~args:[ h ev; u ]
        (ret_out (fun v -> event_status_of_int (to_i v)) 0)

    let clGetEventProfilingInfo ev info =
      sync t.stub ~fn:"clGetEventProfilingInfo"
        ~args:[ h ev; i (profiling_info_to_int info); u ]
        (ret_out to_i 0)

    let clReleaseEvent ev = fire t.stub ~fn:"clReleaseEvent" ~args:[ h ev ] ()
  end in
  ((module M : Ava_simcl.Api.S), t)

