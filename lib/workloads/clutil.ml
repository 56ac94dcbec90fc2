(* Small helpers shared by the SimCL workloads. *)

open Ava_simcl.Types

exception Api_failure of string

let ok = function
  | Ok v -> v
  | Error e -> raise (Api_failure (error_to_string e))

type session = {
  cl : (module Ava_simcl.Api.S);
  device : device_id;
  context : context;
  queue : command_queue;
}

let open_session (module CL : Ava_simcl.Api.S) =
  let platform = List.hd (ok (CL.clGetPlatformIDs ())) in
  let device = List.hd (ok (CL.clGetDeviceIDs platform Device_gpu)) in
  let context = ok (CL.clCreateContext [ device ]) in
  let queue = ok (CL.clCreateCommandQueue context device ~profiling:false) in
  { cl = (module CL); device; context; queue }

let close_session s =
  let module CL = (val s.cl) in
  ok (CL.clReleaseCommandQueue s.queue);
  ok (CL.clReleaseContext s.context)

(* Build a program of synthetic kernels: [(name, flops_per_item,
   bytes_per_item); ...], returning the kernel handles in order. *)
let build_kernels s decls =
  let module CL = (val s.cl) in
  let source =
    String.concat "; "
      (List.map
         (fun (name, flops, bytes) ->
           Printf.sprintf "synthetic %s flops=%g bytes=%g" name flops bytes)
         decls)
  in
  let program = ok (CL.clCreateProgramWithSource s.context ~source) in
  ok (CL.clBuildProgram program ~options:"");
  List.map
    (fun (name, _, _) -> ok (CL.clCreateKernel program ~name))
    decls

let buffer s size =
  let module CL = (val s.cl) in
  ok (CL.clCreateBuffer s.context ~size)

let write ?(blocking = false) s mem data =
  let module CL = (val s.cl) in
  ignore
    (ok
       (CL.clEnqueueWriteBuffer s.queue mem ~blocking ~offset:0 ~src:data
          ~wait_list:[] ~want_event:false))

let read s mem ~size =
  let module CL = (val s.cl) in
  let data, _ =
    ok
      (CL.clEnqueueReadBuffer s.queue mem ~blocking:true ~offset:0 ~size
         ~wait_list:[] ~want_event:false)
  in
  data

let set_arg s k index arg =
  let module CL = (val s.cl) in
  ok (CL.clSetKernelArg k ~index arg)

let launch s k ~global ~local =
  let module CL = (val s.cl) in
  ignore
    (ok
       (CL.clEnqueueNDRangeKernel s.queue k ~global_work_size:global
          ~local_work_size:local ~wait_list:[] ~want_event:false))

let finish s =
  let module CL = (val s.cl) in
  ok (CL.clFinish s.queue)

(* The reference vec-add pipeline: upload two int32 vectors of [n]
   elements, enqueue [launches] vec_add kernels, read back and verify
   the sums bit-for-bit; with [release], tear down every object it
   made.  Direct CL calls rather than the session helpers above, which
   allocate more per call on this hot path. *)
let vec_add (module CL : Ava_simcl.Api.S) ~n ~launches ~release =
  let p = List.hd (ok (CL.clGetPlatformIDs ())) in
  let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
  let ctx = ok (CL.clCreateContext [ d ]) in
  let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
  let a = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
  let b = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
  let out = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
  let i32_bytes l =
    let by = Bytes.create (4 * List.length l) in
    List.iteri (fun i v -> Bytes.set_int32_le by (4 * i) (Int32.of_int v)) l;
    by
  in
  let av = List.init n (fun i -> i) and bv = List.init n (fun i -> 7 * i) in
  ignore
    (ok
       (CL.clEnqueueWriteBuffer q a ~blocking:false ~offset:0
          ~src:(i32_bytes av) ~wait_list:[] ~want_event:false));
  ignore
    (ok
       (CL.clEnqueueWriteBuffer q b ~blocking:false ~offset:0
          ~src:(i32_bytes bv) ~wait_list:[] ~want_event:false));
  let prog = ok (CL.clCreateProgramWithSource ctx ~source:"builtin vec_add") in
  ok (CL.clBuildProgram prog ~options:"");
  let k = ok (CL.clCreateKernel prog ~name:"vec_add") in
  ok (CL.clSetKernelArg k ~index:0 (Arg_mem a));
  ok (CL.clSetKernelArg k ~index:1 (Arg_mem b));
  ok (CL.clSetKernelArg k ~index:2 (Arg_mem out));
  for _ = 1 to launches do
    ignore
      (ok
         (CL.clEnqueueNDRangeKernel q k ~global_work_size:n ~local_work_size:64
            ~wait_list:[] ~want_event:false))
  done;
  let data, _ =
    ok
      (CL.clEnqueueReadBuffer q out ~blocking:true ~offset:0 ~size:(4 * n)
         ~wait_list:[] ~want_event:false)
  in
  ok (CL.clFinish q);
  let got =
    List.init n (fun i -> Int32.to_int (Bytes.get_int32_le data (4 * i)))
  in
  if release then begin
    ok (CL.clReleaseKernel k);
    ok (CL.clReleaseProgram prog);
    List.iter (fun m -> ok (CL.clReleaseMemObject m)) [ a; b; out ];
    ok (CL.clReleaseCommandQueue q);
    ok (CL.clReleaseContext ctx)
  end;
  got = List.map2 ( + ) av bv
