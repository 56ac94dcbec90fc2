(* Integration tests: full AvA stacks end to end — correctness through
   every technique, async semantics, policy enforcement, migration and
   swapping. *)

module Transport = Ava_transport.Transport
module Stub = Ava_remoting.Stub
module Router = Ava_remoting.Router
module Swap = Ava_remoting.Swap

open Ava_sim
open Ava_simcl.Types
open Ava_core

let mib n = n * 1024 * 1024

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error %s" (error_to_string e)

let i32_bytes l =
  let b = Bytes.create (4 * List.length l) in
  List.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) l;
  b

let bytes_i32 b =
  List.init (Bytes.length b / 4) (fun i ->
      Int32.to_int (Bytes.get_int32_le b (4 * i)))

(* The reference guest program: upload two vectors, add on the device,
   read back.  Returns the result plus end-to-end virtual duration. *)
let vec_add_program (module CL : Ava_simcl.Api.S) n =
  let p = List.hd (ok (CL.clGetPlatformIDs ())) in
  let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
  let ctx = ok (CL.clCreateContext [ d ]) in
  let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
  let a = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
  let b = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
  let out = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
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
  ignore
    (ok
       (CL.clEnqueueNDRangeKernel q k ~global_work_size:n ~local_work_size:64
          ~wait_list:[] ~want_event:false));
  let data, _ =
    ok
      (CL.clEnqueueReadBuffer q out ~blocking:true ~offset:0 ~size:(4 * n)
         ~wait_list:[] ~want_event:false)
  in
  ok (CL.clFinish q);
  (bytes_i32 data, List.map2 ( + ) av bv)

let run_in_engine f =
  let e = Engine.create () in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e));
  Engine.run e;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test program stalled"

(* Run the reference program on a deployment technique; return whether
   results matched and the virtual duration. *)
let run_technique ?(n = 4096) technique =
  run_in_engine (fun e ->
      let t0 = Engine.now e in
      let got, expected =
        match technique with
        | None ->
            let api, _ = Host.native_cl e in
            vec_add_program api n
        | Some tech ->
            let host = Host.create_cl_host e in
            let guest = Host.add_cl_vm host ~technique:tech ~name:"g0" in
            vec_add_program guest.Host.g_api n
      in
      (got = expected, Engine.now e - t0))

let technique_tests =
  let check_technique name tech () =
    let correct, _ = run_technique tech in
    Alcotest.(check bool) (name ^ " computes correctly") true correct
  in
  [
    Alcotest.test_case "native baseline" `Quick (check_technique "native" None);
    Alcotest.test_case "pass-through" `Quick
      (check_technique "passthrough" (Some Host.Passthrough));
    Alcotest.test_case "full virtualization" `Quick
      (check_technique "fullvirt" (Some Host.Full_virt));
    Alcotest.test_case "ava over shm ring" `Quick
      (check_technique "ava" (Some (Host.Ava Transport.Shm_ring)));
    Alcotest.test_case "ava over network (disaggregated)" `Quick
      (check_technique "ava-net" (Some (Host.Ava Transport.Network)));
    Alcotest.test_case "user-space rpc" `Quick
      (check_technique "rpc" (Some Host.User_rpc));
    Alcotest.test_case "ava with sva + doorbell batching" `Quick (fun () ->
        (* Zero-copy data path end to end: page-or-larger buffers cross
           as pinned refs, notifies coalesce, and the program still
           computes the right sums. *)
        let correct, stub =
          run_in_engine (fun e ->
              let host =
                Host.create_cl_host ~sva:true
                  ~doorbell:Transport.default_doorbell e
              in
              let guest =
                Host.add_cl_vm host
                  ~technique:(Host.Ava Transport.Shm_ring)
                  ~name:"g0"
              in
              let got, expected = vec_add_program guest.Host.g_api 4096 in
              (got = expected, Option.get guest.Host.g_stub))
        in
        Alcotest.(check bool) "computes correctly" true correct;
        Alcotest.(check bool) "buffers crossed as refs" true
          (Stub.sva_maps stub > 0);
        Alcotest.(check bool) "payload bytes stayed off the wire" true
          (Stub.sva_saved_bytes stub > 0));
    Alcotest.test_case "dedicated-device guests get no recorder or IOMMU"
      `Quick (fun () ->
        (* Pass-through and full-virt guests run the native driver: no
           call stream to record, nothing resolving through an IOMMU —
           and retire_cl_vm refuses them, so either would leak. *)
        let e = Engine.create () in
        let host = Host.create_cl_host ~sva:true e in
        let built technique =
          let g =
            Host.add_cl_vm host ~technique
              ~name:(Host.technique_to_string technique)
          in
          let vm_id = Ava_hv.Vm.id g.Host.g_vm in
          ( Option.is_some (Host.recorder host ~vm_id),
            Hashtbl.mem host.Host.iommus vm_id )
        in
        Alcotest.(check (pair bool bool)) "pass-through" (false, false)
          (built Host.Passthrough);
        Alcotest.(check (pair bool bool)) "full-virt" (false, false)
          (built Host.Full_virt);
        Alcotest.(check (pair bool bool)) "user rpc" (true, true)
          (built Host.User_rpc);
        Alcotest.(check (pair bool bool)) "ava" (true, true)
          (built (Host.Ava Transport.Shm_ring)));
    Alcotest.test_case "overheads are ordered" `Quick (fun () ->
        let n = 1_000_000 in
        let _, t_native = run_technique ~n None in
        let _, t_pass = run_technique ~n (Some Host.Passthrough) in
        let _, t_ava = run_technique ~n (Some (Host.Ava Transport.Shm_ring)) in
        let _, t_fv = run_technique ~n (Some Host.Full_virt) in
        Alcotest.(check bool) "passthrough ~ native" true
          (float_of_int t_pass /. float_of_int t_native < 1.01);
        (* A one-shot program is the worst case for remoting: all fixed
           setup costs, no repeated kernel time to amortize them. *)
        Alcotest.(check bool) "ava bounded overhead" true
          (t_ava > t_native
          && float_of_int t_ava /. float_of_int t_native < 2.0);
        Alcotest.(check bool) "full virt much slower than ava" true
          (t_fv > 3 * t_ava));
  ]

let async_tests =
  [
    Alcotest.test_case "async failure surfaces at next sync call" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest =
              Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring)
                ~name:"g0"
            in
            let module CL = (val guest.Host.g_api) in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
            (* Async release of a bogus handle: returns success now... *)
            (match CL.clReleaseMemObject 0x55555 with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "async call failed eagerly: %s"
                  (error_to_string e));
            (* ...and the error arrives with the next synchronous call. *)
            (match CL.clFinish q with
            | Ok () -> Alcotest.fail "deferred error was lost"
            | Error _ -> ());
            (* After surfacing once, the channel is clear. *)
            match CL.clFinish q with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "error reported twice: %s" (error_to_string e)));
    Alcotest.test_case "async setarg pipeline still correct" `Quick (fun () ->
        (* clSetKernelArg is forwarded asynchronously (the paper's
           example); results must be unchanged. *)
        let correct, _ = run_technique (Some (Host.Ava Transport.Shm_ring)) in
        Alcotest.(check bool) "correct" true correct);
    Alcotest.test_case "non-blocking read lands after finish" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest =
              Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring)
                ~name:"g0"
            in
            let module CL = (val guest.Host.g_api) in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
            let m = ok (CL.clCreateBuffer ctx ~size:64) in
            ignore
              (ok
                 (CL.clEnqueueFillBuffer q m ~pattern:'w' ~offset:0 ~size:64
                    ~wait_list:[] ~want_event:false));
            let dst, _ =
              ok
                (CL.clEnqueueReadBuffer q m ~blocking:false ~offset:0 ~size:64
                   ~wait_list:[] ~want_event:false)
            in
            ok (CL.clFinish q);
            Alcotest.(check bytes) "data arrived" (Bytes.make 64 'w') dst));
    Alcotest.test_case "event from async enqueue is waitable" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest =
              Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring)
                ~name:"g0"
            in
            let module CL = (val guest.Host.g_api) in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:true) in
            let m = ok (CL.clCreateBuffer ctx ~size:1024) in
            let ev =
              Option.get
                (ok
                   (CL.clEnqueueFillBuffer q m ~pattern:'e' ~offset:0
                      ~size:1024 ~wait_list:[] ~want_event:true))
            in
            ok (CL.clWaitForEvents [ ev ]);
            Alcotest.(check bool) "complete" true
              (ok (CL.clGetEventInfo ev) = Complete);
            let start = ok (CL.clGetEventProfilingInfo ev Profiling_start) in
            let stop = ok (CL.clGetEventProfilingInfo ev Profiling_end) in
            Alcotest.(check bool) "profiled" true (stop > start)));
  ]

let batching_tests =
  [
    Alcotest.test_case "batched guest computes identical results" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest =
              Host.add_cl_vm host ~batching:true ~name:"batched"
            in
            let got, expected = vec_add_program guest.Host.g_api 2048 in
            Alcotest.(check bool) "correct" true (got = expected);
            (* setargs piggybacked on the launch: at least one multi-call
               batch crossed the transport. *)
            let stub = Option.get guest.Host.g_stub in
            Alcotest.(check bool) "batches were sent" true
              (Ava_remoting.Stub.batches_sent stub > 0)));
    Alcotest.test_case "deferred errors survive batching" `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest =
              Host.add_cl_vm host ~batching:true ~name:"batched"
            in
            let module CL = (val guest.Host.g_api) in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
            (* Held async call against a bogus handle... *)
            (match CL.clRetainMemObject 0x7777 with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "async failed eagerly: %s" (error_to_string e));
            (* ...flushes with the next sync call, which reports it. *)
            match CL.clFinish q with
            | Error _ -> ()
            | Ok () -> Alcotest.fail "batched deferred error was lost"));
    Alcotest.test_case "batching preserves call order" `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest =
              Host.add_cl_vm host ~batching:true ~name:"batched"
            in
            let module CL = (val guest.Host.g_api) in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
            let m = ok (CL.clCreateBuffer ctx ~size:64) in
            (* Two held retains then a fill must execute in order; the
               refcount at the end proves both retains landed first. *)
            ignore (ok (CL.clRetainContext ctx));
            ignore (ok (CL.clRetainContext ctx));
            ignore
              (ok
                 (CL.clEnqueueFillBuffer q m ~pattern:'o' ~offset:0 ~size:64
                    ~wait_list:[] ~want_event:false));
            ok (CL.clFinish q);
            Alcotest.(check int) "refcount 3" 3 (ok (CL.clGetContextInfo ctx));
            let data, _ =
              ok
                (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:0 ~size:64
                   ~wait_list:[] ~want_event:false)
            in
            Alcotest.(check bytes) "fill landed" (Bytes.make 64 'o') data));
  ]

let isolation_tests =
  [
    Alcotest.test_case "guests cannot use each other's handles" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let g1 = Host.add_cl_vm host ~name:"g1" in
            let g2 = Host.add_cl_vm host ~name:"g2" in
            let module CL1 = (val g1.Host.g_api) in
            let module CL2 = (val g2.Host.g_api) in
            let p = List.hd (ok (CL1.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL1.clGetDeviceIDs p Device_gpu)) in
            let ctx1 = ok (CL1.clCreateContext [ d ]) in
            let m1 = ok (CL1.clCreateBuffer ctx1 ~size:4096) in
            (* Same numeric id in guest 2 must not resolve. *)
            match CL2.clGetMemObjectInfo m1 with
            | Ok _ -> Alcotest.fail "handle leaked across VMs"
            | Error _ -> ()));
    Alcotest.test_case "concurrent guests all compute correctly" `Quick
      (fun () ->
        (* Four tenants run different computations at the same time on
           one GPU; every result must be correct and distinct. *)
        let e = Engine.create () in
        let host = Host.create_cl_host e in
        let results = Hashtbl.create 4 in
        for idx = 1 to 4 do
          let guest =
            Host.add_cl_vm host ~name:(Printf.sprintf "vm%d" idx)
          in
          Engine.spawn e (fun () ->
              let module CL = (val guest.Host.g_api) in
              let p = List.hd (ok (CL.clGetPlatformIDs ())) in
              let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
              let ctx = ok (CL.clCreateContext [ d ]) in
              let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
              let n = 512 in
              let a = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
              let out = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
              ignore
                (ok
                   (CL.clEnqueueWriteBuffer q a ~blocking:true ~offset:0
                      ~src:(i32_bytes (List.init n (fun i -> i)))
                      ~wait_list:[] ~want_event:false));
              let prog =
                ok (CL.clCreateProgramWithSource ctx ~source:"builtin scale")
              in
              ok (CL.clBuildProgram prog ~options:"");
              let k = ok (CL.clCreateKernel prog ~name:"scale") in
              ok (CL.clSetKernelArg k ~index:0 (Arg_mem a));
              ok (CL.clSetKernelArg k ~index:1 (Arg_mem out));
              (* Each tenant scales by its own factor. *)
              ok (CL.clSetKernelArg k ~index:2 (Arg_int idx));
              ignore
                (ok
                   (CL.clEnqueueNDRangeKernel q k ~global_work_size:n
                      ~local_work_size:64 ~wait_list:[] ~want_event:false));
              let data, _ =
                ok
                  (CL.clEnqueueReadBuffer q out ~blocking:true ~offset:0
                     ~size:(4 * n) ~wait_list:[] ~want_event:false)
              in
              Hashtbl.replace results idx (bytes_i32 data))
        done;
        Engine.run e;
        for idx = 1 to 4 do
          let expected = List.init 512 (fun i -> idx * i) in
          Alcotest.(check (list int))
            (Printf.sprintf "vm%d result" idx)
            expected
            (Hashtbl.find results idx)
        done);
    Alcotest.test_case "router rejects unknown functions" `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest = Host.add_cl_vm host ~name:"g0" in
            let stub = Option.get guest.Host.g_stub in
            match Stub.invoke stub ~fn:"clEvilFunction" ~args:[] with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "stub accepted unspecified function"));
    Alcotest.test_case "router rejects malformed argument counts" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest = Host.add_cl_vm host ~name:"g0" in
            let stub = Option.get guest.Host.g_stub in
            (* clFinish takes exactly one argument. *)
            (match
               Stub.invoke ~force_sync:true stub ~fn:"clFinish"
                 ~args:[ Codec.i 1; Codec.i 2 ]
             with
            | Ok (Some reply) ->
                Alcotest.(check bool)
                  "rejected" true
                  (reply.Ava_remoting.Message.reply_status < -9000)
            | _ -> Alcotest.fail "expected a rejection reply");
            Alcotest.(check int) "router counted it" 1
              (Router.rejected host.Host.router)));
  ]

let policy_tests =
  [
    Alcotest.test_case "rate limiting throttles call rate" `Quick (fun () ->
        let run limited =
          run_in_engine (fun e ->
              let host = Host.create_cl_host e in
              let guest =
                Host.add_cl_vm host
                  ?rate_per_s:(if limited then Some 10_000.0 else None)
                  ~name:"g0"
              in
              (if limited then
                 Router.set_rate_limit host.Host.router
                   ~vm_id:(Ava_hv.Vm.id guest.Host.g_vm)
                   ~rate_per_s:10_000.0 ~burst:1.0);
              let module CL = (val guest.Host.g_api) in
              let p = List.hd (ok (CL.clGetPlatformIDs ())) in
              let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
              let ctx = ok (CL.clCreateContext [ d ]) in
              let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
              let t0 = Engine.now e in
              for _ = 1 to 200 do
                ok (CL.clFinish q)
              done;
              Engine.now e - t0)
        in
        let unlimited = run false and limited = run true in
        (* 200 calls at 10k/s is at least 20ms. *)
        Alcotest.(check bool) "limited >= 19ms" true (limited >= Time.ms 19);
        Alcotest.(check bool) "much slower than unlimited" true
          (limited > 3 * unlimited));
    Alcotest.test_case "wfq favors the heavier weight" `Quick (fun () ->
        let finish_times =
          run_in_engine (fun e ->
              let host = Host.create_cl_host e in
              let heavy = Host.add_cl_vm host ~weight:8.0 ~name:"heavy" in
              let light = Host.add_cl_vm host ~weight:1.0 ~name:"light" in
              let done_times = Hashtbl.create 2 in
              let guest_prog name (guest : Host.cl_guest) =
                Engine.spawn e (fun () ->
                    let module CL = (val guest.Host.g_api) in
                    let p = List.hd (ok (CL.clGetPlatformIDs ())) in
                    let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
                    let ctx = ok (CL.clCreateContext [ d ]) in
                    let q =
                      ok (CL.clCreateCommandQueue ctx d ~profiling:false)
                    in
                    let prog =
                      ok
                        (CL.clCreateProgramWithSource ctx
                           ~source:
                             "synthetic k flops=2000 bytes=0")
                    in
                    ok (CL.clBuildProgram prog ~options:"");
                    let k = ok (CL.clCreateKernel prog ~name:"k") in
                    for _ = 1 to 50 do
                      ignore
                        (ok
                           (CL.clEnqueueNDRangeKernel q k
                              ~global_work_size:100_000 ~local_work_size:64
                              ~wait_list:[] ~want_event:false))
                    done;
                    ok (CL.clFinish q);
                    Hashtbl.replace done_times name (Engine.now e))
              in
              guest_prog "heavy" heavy;
              guest_prog "light" light;
              Engine.run e;
              ( Hashtbl.find done_times "heavy",
                Hashtbl.find done_times "light" ))
        in
        let t_heavy, t_light = finish_times in
        Alcotest.(check bool) "heavy finishes first" true (t_heavy < t_light));
    Alcotest.test_case "quota stalls over-budget guests" `Quick (fun () ->
        let elapsed =
          run_in_engine (fun e ->
              let host = Host.create_cl_host e in
              let guest =
                Host.add_cl_vm host ~quota_cost:10.0
                  ~quota_window:(Time.ms 10) ~name:"g0"
              in
              let module CL = (val guest.Host.g_api) in
              let p = List.hd (ok (CL.clGetPlatformIDs ())) in
              let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
              let ctx = ok (CL.clCreateContext [ d ]) in
              let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
              let t0 = Engine.now e in
              (* Each call costs >= 1 unit; 50 calls at 10/window of 10ms
                 needs ~5 windows. *)
              for _ = 1 to 50 do
                ok (CL.clFinish q)
              done;
              Engine.now e - t0)
        in
        Alcotest.(check bool) "stalled across windows" true
          (elapsed >= Time.ms 30));
  ]

let conformance_tests =
  [
    Alcotest.test_case "all 39 functions work through the AvA stack" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest = Host.add_cl_vm host ~name:"conformance" in
            let module CL = (val guest.Host.g_api) in
            (* platform / device *)
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            Alcotest.(check string) "platform name" "SimCL"
              (ok (CL.clGetPlatformInfo p Platform_name));
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            (match ok (CL.clGetDeviceInfo d Device_max_compute_units) with
            | Info_int n -> Alcotest.(check int) "CUs" 20 n
            | Info_string _ -> Alcotest.fail "expected int info");
            (* context *)
            let ctx = ok (CL.clCreateContext [ d ]) in
            ok (CL.clRetainContext ctx);
            Alcotest.(check int) "ctx refs" 2 (ok (CL.clGetContextInfo ctx));
            ok (CL.clReleaseContext ctx);
            (* queue *)
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:true) in
            ok (CL.clRetainCommandQueue q);
            ok (CL.clReleaseCommandQueue q);
            Alcotest.(check int) "queue's context via reverse lookup" ctx
              (ok (CL.clGetCommandQueueInfo q));
            (* memory *)
            let m = ok (CL.clCreateBuffer ctx ~size:4096) in
            ok (CL.clRetainMemObject m);
            ok (CL.clReleaseMemObject m);
            Alcotest.(check int) "mem size" 4096
              (ok (CL.clGetMemObjectInfo m));
            (* program *)
            let prog =
              ok
                (CL.clCreateProgramWithSource ctx
                   ~source:"builtin vec_add; builtin reduce_sum")
            in
            ok (CL.clBuildProgram prog ~options:"-O2");
            Alcotest.(check string) "build log" "build ok"
              (ok (CL.clGetProgramBuildInfo prog));
            ok (CL.clRetainProgram prog);
            ok (CL.clReleaseProgram prog);
            (* kernel *)
            let k = ok (CL.clCreateKernel prog ~name:"reduce_sum") in
            ok (CL.clRetainKernel k);
            ok (CL.clReleaseKernel k);
            Alcotest.(check string) "kernel info" "reduce_sum"
              (ok (CL.clGetKernelInfo k));
            Alcotest.(check int) "wg info" 1024
              (ok (CL.clGetKernelWorkGroupInfo k d));
            ok (CL.clSetKernelArg k ~index:0 (Arg_mem m));
            ok (CL.clSetKernelArg k ~index:1 (Arg_mem m));
            (* enqueues *)
            ignore
              (ok
                 (CL.clEnqueueWriteBuffer q m ~blocking:false ~offset:0
                    ~src:(i32_bytes (List.init 16 (fun i -> i)))
                    ~wait_list:[] ~want_event:false));
            ignore
              (ok
                 (CL.clEnqueueFillBuffer q m ~pattern:'\000' ~offset:1024
                    ~size:1024 ~wait_list:[] ~want_event:false));
            let m2 = ok (CL.clCreateBuffer ctx ~size:4096) in
            ignore
              (ok
                 (CL.clEnqueueCopyBuffer q ~src:m ~dst:m2 ~src_offset:0
                    ~dst_offset:0 ~size:64 ~wait_list:[] ~want_event:false));
            let ev_ndr =
              Option.get
                (ok
                   (CL.clEnqueueNDRangeKernel q k ~global_work_size:16
                      ~local_work_size:4 ~wait_list:[] ~want_event:true))
            in
            let ev_task =
              Option.get
                (ok
                   (CL.clEnqueueTask q k ~wait_list:[ ev_ndr ]
                      ~want_event:true))
            in
            (* synchronization + events *)
            ok (CL.clFlush q);
            ok (CL.clWaitForEvents [ ev_ndr; ev_task ]);
            Alcotest.(check bool) "task complete" true
              (ok (CL.clGetEventInfo ev_task) = Complete);
            let t0 = ok (CL.clGetEventProfilingInfo ev_ndr Profiling_start) in
            let t1 = ok (CL.clGetEventProfilingInfo ev_ndr Profiling_end) in
            Alcotest.(check bool) "profiling sane" true (t1 > t0);
            let data, _ =
              ok
                (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:0 ~size:8
                   ~wait_list:[] ~want_event:false)
            in
            (* reduce_sum over 0..15 = 120, stored in the first int32 of m *)
            Alcotest.(check int) "device computed the sum" 120
              (List.hd (bytes_i32 data));
            ok (CL.clReleaseEvent ev_ndr);
            ok (CL.clReleaseEvent ev_task);
            ok (CL.clFinish q)));
    Alcotest.test_case "error codes survive the wire" `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest = Host.add_cl_vm host ~name:"errs" in
            let module CL = (val guest.Host.g_api) in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
            let expect name expected = function
              | Error err ->
                  Alcotest.(check string) name (error_to_string expected)
                    (error_to_string err)
              | Ok _ -> Alcotest.failf "%s: expected %s" name
                          (error_to_string expected)
            in
            expect "invalid platform" Invalid_platform
              (CL.clGetDeviceIDs 424242 Device_gpu);
            expect "invalid device" Invalid_device (CL.clCreateContext [ 9 ]);
            expect "invalid value" Invalid_value
              (CL.clCreateBuffer ctx ~size:0);
            let m = ok (CL.clCreateBuffer ctx ~size:64) in
            expect "oob read" Invalid_value
              (Result.map fst
                 (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:60
                    ~size:10 ~wait_list:[] ~want_event:false));
            let prog =
              ok (CL.clCreateProgramWithSource ctx ~source:"builtin no_such")
            in
            expect "build failure" Build_program_failure
              (CL.clBuildProgram prog ~options:"");
            expect "kernel before build" Invalid_program_executable
              (CL.clCreateKernel prog ~name:"x");
            expect "empty wait list" Invalid_value (CL.clWaitForEvents []);
            (* A forged handle is caught by the server's id map: the
               rejection is remoting-level, not CL_INVALID_EVENT (the
               server cannot know which object type the id was meant to
               be). *)
            match CL.clGetEventInfo 31337 with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "forged handle accepted"));
    Alcotest.test_case "report snapshot is consistent" `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest = Host.add_cl_vm host ~batching:true ~name:"reported" in
            let _ = vec_add_program guest.Host.g_api 1024 in
            let r = Report.snapshot host [ guest ] in
            let g = List.hd r.Report.r_guests in
            Alcotest.(check string) "name" "reported" g.Report.gs_name;
            Alcotest.(check bool) "calls counted" true
              (g.Report.gs_api_calls > 10);
            (* Batching coalesces calls into fewer transport messages:
               forwarded counts messages, api_calls counts calls. *)
            Alcotest.(check bool) "router forwarded all messages" true
              (r.Report.r_forwarded <= g.Report.gs_api_calls
              && r.Report.r_forwarded >= g.Report.gs_sync_calls);
            Alcotest.(check bool) "kernel ran" true (r.Report.r_kernels >= 1);
            Alcotest.(check int) "nothing pending" 0 g.Report.gs_in_flight;
            Alcotest.(check bool) "render works" true
              (String.length (Fmt.str "%a" Report.pp r) > 100)));
  ]

let migration_tests =
  [
    Alcotest.test_case "migration preserves guest state and data" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host ~devices:2 e in
            let guest = Host.add_cl_vm host ~device:0 ~name:"g0" in
            let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
            let module CL = (val guest.Host.g_api) in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
            let m = ok (CL.clCreateBuffer ctx ~size:(mib 1)) in
            let payload = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
            ignore
              (ok
                 (CL.clEnqueueWriteBuffer q m ~blocking:true ~offset:100
                    ~src:payload ~wait_list:[] ~want_event:false));
            (* Also set up a program/kernel to exercise replay. *)
            let prog =
              ok (CL.clCreateProgramWithSource ctx ~source:"builtin vec_add")
            in
            ok (CL.clBuildProgram prog ~options:"");
            let k = ok (CL.clCreateKernel prog ~name:"vec_add") in
            ok (CL.clSetKernelArg k ~index:0 (Arg_mem m));
            ok (CL.clFinish q);
            (* Migrate to a second GPU. *)
            let pool = host.Host.cl_pool in
            let dest_gpu = Host.Pool.gpu pool 1 in
            let copied = Host.Pool.migrate_vm pool ~vm_id ~dest:1 in
            Alcotest.(check bool) "replayed some calls" true
              (Ava_remoting.Migrate.log_length
                 (Option.get (Host.recorder host ~vm_id))
              >= 5);
            Alcotest.(check int) "one buffer snapshot and restored"
              (2 * mib 1) copied;
            (* The guest continues with its old handles, on the new GPU. *)
            let back, _ =
              ok
                (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:100
                   ~size:4096 ~wait_list:[] ~want_event:false)
            in
            Alcotest.(check bytes) "data survived" payload back;
            Alcotest.(check bool) "dest device did the read" true
              (Ava_device.Dma.transfers (Ava_device.Gpu.dma dest_gpu) > 0);
            Alcotest.(check string) "kernel still usable" "vec_add"
              (ok (CL.clGetKernelInfo k))));
    Alcotest.test_case "dealloc prunes the replay log" `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest = Host.add_cl_vm host ~name:"g0" in
            let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
            let module CL = (val guest.Host.g_api) in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
            let before =
              Ava_remoting.Migrate.log_length
                (Option.get (Host.recorder host ~vm_id))
            in
            let m = ok (CL.clCreateBuffer ctx ~size:4096) in
            ignore
              (ok
                 (CL.clEnqueueWriteBuffer q m ~blocking:true ~offset:0
                    ~src:(Bytes.create 128) ~wait_list:[] ~want_event:false));
            ok (CL.clReleaseMemObject m);
            ok (CL.clFinish q);
            let after =
              Ava_remoting.Migrate.log_length
                (Option.get (Host.recorder host ~vm_id))
            in
            Alcotest.(check int) "alloc+modify pruned" before after));
  ]

(* Open a context on the guest and allocate [n] buffers of [size]
   bytes; returns the buffers and the queue. *)
let alloc_buffers (module CL : Ava_simcl.Api.S) ~n ~size =
  let p = List.hd (ok (CL.clGetPlatformIDs ())) in
  let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
  let ctx = ok (CL.clCreateContext [ d ]) in
  let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
  let bufs = List.init n (fun _ -> ok (CL.clCreateBuffer ctx ~size)) in
  ok (CL.clFinish q);
  bufs

let swap_tests =
  [
    Alcotest.test_case "retire frees the vm's swap residency" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e ~swap_capacity:(mib 8) in
            let sw = host.Host.swaps.(0) in
            let first = Host.add_cl_vm host ~name:"first" in
            ignore (alloc_buffers first.Host.g_api ~n:2 ~size:(mib 2));
            Alcotest.(check int) "two buffers tracked" 2 (Swap.tracked sw);
            Alcotest.(check bool) "retired" true
              (Host.retire_cl_vm host ~vm_id:(Ava_hv.Vm.id first.Host.g_vm));
            Alcotest.(check int) "nothing tracked" 0 (Swap.tracked sw);
            Alcotest.(check int) "nothing resident" 0 (Swap.resident_bytes sw);
            (* A later tenant gets the whole budget: no evictions
               against the retired tenant's bytes. *)
            let second = Host.add_cl_vm host ~name:"second" in
            ignore (alloc_buffers second.Host.g_api ~n:4 ~size:(mib 2));
            Alcotest.(check int) "no evictions" 0 (Swap.evictions sw);
            Alcotest.(check bool) "invariants" true
              (Swap.check_invariants sw)));
    Alcotest.test_case "each pool device swaps within its own budget" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host =
              Host.create_cl_host e ~devices:2 ~swap_capacity:(mib 8)
            in
            Alcotest.(check int) "one swap manager per device" 2
              (Array.length host.Host.swaps);
            let guests =
              List.init 2 (fun d ->
                  Host.add_cl_vm host ~device:d
                    ~name:(Printf.sprintf "vm%d" d))
            in
            List.iter
              (fun g -> ignore (alloc_buffers g.Host.g_api ~n:4 ~size:(mib 4)))
              guests;
            Array.iteri
              (fun d sw ->
                let what s = Printf.sprintf "dev%d %s" d s in
                Alcotest.(check int) (what "tracks its vm's buffers") 4
                  (Swap.tracked sw);
                Alcotest.(check bool) (what "evicted under pressure") true
                  (Swap.evictions sw > 0);
                Alcotest.(check bool) (what "resident under budget") true
                  (Swap.resident_bytes sw <= mib 8);
                Alcotest.(check bool) (what "invariants") true
                  (Swap.check_invariants sw))
              host.Host.swaps));
    Alcotest.test_case "oversubscription succeeds with swapping" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e ~swap_capacity:(mib 8) in
            let guest = Host.add_cl_vm host ~name:"g0" in
            let module CL = (val guest.Host.g_api) in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
            (* 4 x 4MiB in an 8MiB swap budget. *)
            let bufs =
              List.init 4 (fun _ -> ok (CL.clCreateBuffer ctx ~size:(mib 4)))
            in
            List.iteri
              (fun idx m ->
                ignore
                  (ok
                     (CL.clEnqueueFillBuffer q m
                        ~pattern:(Char.chr (Char.code 'a' + idx))
                        ~offset:0 ~size:(mib 4) ~wait_list:[]
                        ~want_event:false)))
              bufs;
            ok (CL.clFinish q);
            let sw = host.Host.swaps.(0) in
            Alcotest.(check bool) "evictions happened" true
              (Swap.evictions sw > 0);
            Alcotest.(check bool) "resident under budget" true
              (Swap.resident_bytes sw <= mib 8);
            Alcotest.(check bool) "invariants" true (Swap.check_invariants sw);
            (* Every buffer's data is intact despite eviction churn. *)
            List.iteri
              (fun idx m ->
                let data, _ =
                  ok
                    (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:0
                       ~size:(mib 4) ~wait_list:[] ~want_event:false)
                in
                Alcotest.(check char)
                  "pattern intact"
                  (Char.chr (Char.code 'a' + idx))
                  (Bytes.get data (mib 2)))
              bufs));
  ]

let nc_tests =
  [
    Alcotest.test_case "virtual mvnc matches native inference" `Quick
      (fun () ->
        let graph =
          Ava_simnc.Graphdef.encode ~total_bytes:(mib 1)
            { Ava_simnc.Graphdef.layer_flops = [ 1e8; 2e8 ]; output_bytes = 32 }
        in
        let input = Bytes.init 32 (fun i -> Char.chr (i * 3 land 0xff)) in
        let infer (module NC : Ava_simnc.Api.S) =
          let name = Result.get_ok (NC.mvncGetDeviceName ~index:0) in
          let d = Result.get_ok (NC.mvncOpenDevice ~name) in
          let g = Result.get_ok (NC.mvncAllocateGraph d ~graph_data:graph) in
          Result.get_ok (NC.mvncLoadTensor g ~tensor:input);
          let out = Result.get_ok (NC.mvncGetResult g) in
          Result.get_ok (NC.mvncDeallocateGraph g);
          Result.get_ok (NC.mvncCloseDevice d);
          out
        in
        let native =
          run_in_engine (fun e ->
              let api, _ = Host.native_nc e in
              infer api)
        in
        let virt =
          run_in_engine (fun e ->
              let host = Host.create_nc_host e in
              let guest = Host.add_nc_vm host ~name:"g0" in
              infer guest.Host.ng_api)
        in
        Alcotest.(check bytes) "same output" native virt);
    Alcotest.test_case "ncs overhead is small" `Quick (fun () ->
        (* Few, long calls over USB: the paper reports ~1%. *)
        let graph =
          Ava_simnc.Graphdef.encode ~total_bytes:(mib 4)
            {
              Ava_simnc.Graphdef.layer_flops = List.init 20 (fun _ -> 5e8);
              output_bytes = 4096;
            }
        in
        let bench (module NC : Ava_simnc.Api.S) =
          let name = Result.get_ok (NC.mvncGetDeviceName ~index:0) in
          let d = Result.get_ok (NC.mvncOpenDevice ~name) in
          let g = Result.get_ok (NC.mvncAllocateGraph d ~graph_data:graph) in
          for _ = 1 to 5 do
            Result.get_ok (NC.mvncLoadTensor g ~tensor:(Bytes.create 150528));
            ignore (Result.get_ok (NC.mvncGetResult g))
          done
        in
        let t_native =
          run_in_engine (fun e ->
              let api, _ = Host.native_nc e in
              bench api;
              Engine.now e)
        in
        let t_virt =
          run_in_engine (fun e ->
              let host = Host.create_nc_host e in
              let guest = Host.add_nc_vm host ~name:"g0" in
              bench guest.Host.ng_api;
              Engine.now e)
        in
        let rel = float_of_int t_virt /. float_of_int t_native in
        Alcotest.(check bool)
          (Printf.sprintf "relative runtime %.4f in [1, 1.05]" rel)
          true
          (rel >= 1.0 && rel < 1.05));
  ]

(* --- payload ownership ------------------------------------------------ *)

(* Guest libraries pass the caller's buffers to the stub uncopied; the
   stub's frame encode is the snapshot, and it copies what it keeps past
   the call (SVA pins, the NAK-resend frame). *)

let scribble b = Bytes.fill b 0 (Bytes.length b) '\xee'

(* [upload e ~src ~after] deploys a silo, hands [src] to a non-blocking
   write or upload, calls [after src] the moment it returns, and returns
   what the device holds.  Scribbling over the source then must not
   change what the device saw; scribbling before the call must. *)
let snapshot_case name upload =
  Alcotest.test_case name `Quick (fun () ->
      let fresh () =
        Bytes.init 8192 (fun i -> Char.chr (((i * 7) + 3) land 255))
      in
      let run ~src ~after = run_in_engine (fun e -> upload e ~src ~after) in
      let clean = run ~src:(fresh ()) ~after:ignore in
      let dirty = run ~src:(fresh ()) ~after:scribble in
      let before =
        let src = fresh () in
        scribble src;
        run ~src ~after:ignore
      in
      Alcotest.(check bool) "the device view follows the source" false
        (Bytes.equal clean before);
      Alcotest.(check bytes) "the device saw the bytes at call time" clean
        dirty)

let cl_queue (module CL : Ava_simcl.Api.S) =
  let p = List.hd (ok (CL.clGetPlatformIDs ())) in
  let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
  let ctx = ok (CL.clCreateContext [ d ]) in
  (ctx, ok (CL.clCreateCommandQueue ctx d ~profiling:false))

let cl_write (module CL : Ava_simcl.Api.S) q m src =
  ignore
    (ok
       (CL.clEnqueueWriteBuffer q m ~blocking:false ~offset:0 ~src
          ~wait_list:[] ~want_event:false))

let cl_read (module CL : Ava_simcl.Api.S) q m ~size =
  fst
    (ok
       (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:0 ~size
          ~wait_list:[] ~want_event:false))

(* One non-blocking write on a CL host built by [create]. *)
let cl_upload create e ~src ~after =
  let host = create e in
  let guest = Host.add_cl_vm host ~name:"g0" in
  let api = guest.Host.g_api in
  let module CL = (val api) in
  let ctx, q = cl_queue api in
  let size = Bytes.length src in
  let m = ok (CL.clCreateBuffer ctx ~size) in
  cl_write api q m src;
  after src;
  cl_read api q m ~size

(* The second write of the same payload goes as a [Blob_ref]; the
   content store is flushed before the server sees it, so the server
   NAKs and the stub resends the full frame, encoded only now. *)
let cl_upload_ref e ~src ~after =
  let host = Host.create_cl_host ~transfer_cache:(mib 1) e in
  let guest = Host.add_cl_vm host ~name:"g0" in
  let api = guest.Host.g_api in
  let module CL = (val api) in
  let stub = Option.get guest.Host.g_stub in
  let ctx, q = cl_queue api in
  let size = Bytes.length src in
  let announced = ok (CL.clCreateBuffer ctx ~size) in
  let m = ok (CL.clCreateBuffer ctx ~size) in
  cl_write api q announced src;
  ok (CL.clFinish q);
  cl_write api q m src;
  after src;
  Ava_remoting.Server.flush_cache host.Host.server
    ~vm_id:(Ava_hv.Vm.id guest.Host.g_vm);
  let seen = cl_read api q m ~size in
  Alcotest.(check int) "sent as a ref" 1 (Stub.cache_refs stub);
  Alcotest.(check int) "resent in full after a NAK" 1
    (Stub.cache_nak_resends stub);
  seen

(* NC: the tensor goes in with mvncLoadTensor (forwarded
   asynchronously); the device's view is the inference over it. *)
let nc_upload ?(cached = false) create e ~src ~after =
  let host = create e in
  let guest = Host.add_nc_vm host ~name:"g0" in
  let module NC = (val guest.Host.ng_api) in
  let graph =
    Ava_simnc.Graphdef.encode ~total_bytes:(mib 1)
      {
        Ava_simnc.Graphdef.layer_flops = [ 1e6; 2e6 ];
        output_bytes = Bytes.length src;
      }
  in
  let name = Result.get_ok (NC.mvncGetDeviceName ~index:0) in
  let d = Result.get_ok (NC.mvncOpenDevice ~name) in
  let g = Result.get_ok (NC.mvncAllocateGraph d ~graph_data:graph) in
  if cached then begin
    Result.get_ok (NC.mvncLoadTensor g ~tensor:src);
    ignore (Result.get_ok (NC.mvncGetResult g))
  end;
  Result.get_ok (NC.mvncLoadTensor g ~tensor:src);
  after src;
  if cached then
    Ava_remoting.Server.flush_cache host.Host.nc_server
      ~vm_id:(Ava_hv.Vm.id guest.Host.ng_vm);
  let out = Result.get_ok (NC.mvncGetResult g) in
  (if cached then
     let stub = Option.get guest.Host.ng_stub in
     Alcotest.(check int) "resent in full after a NAK" 1
       (Stub.cache_nak_resends stub));
  out

let st_upload e ~src ~after =
  let host = Host.create_st_host e in
  let guest = Host.add_st_vm host ~name:"g0" in
  let module ST = (val guest.Host.sg_api) in
  let size = Bytes.length src in
  let s = Result.get_ok (ST.stStreamCreate ()) in
  let m = Result.get_ok (ST.stMemAlloc ~size) in
  Result.get_ok (ST.stMemcpyHtoDAsync m ~src s);
  after src;
  Result.get_ok (ST.stMemcpyDtoH ~size m)

(* QA: qaSubmitCompress is forwarded asynchronously and completes by
   upcall; the device's view is the compressed output, expanded again. *)
let qa_upload e ~src ~after =
  let module T = Ava_simqa.Types in
  let host = Host.create_qa_host e in
  let guest = Host.add_qa_vm host ~name:"g0" in
  let module QA = (val guest.Host.qg_api) in
  let inst = Result.get_ok (QA.qaStartInstance ~index:0) in
  let cs = Result.get_ok (QA.qaCreateSession inst T.Dir_compress ~level:6) in
  let ds = Result.get_ok (QA.qaCreateSession inst T.Dir_decompress ~level:6) in
  let packed = ref None in
  Result.get_ok
    (QA.qaSubmitCompress cs ~src ~tag:1 ~callback:(fun ~tag:_ out ->
         packed := Some out));
  after src;
  let rec wait n =
    match !packed with
    | Some p -> p
    | None when n > 0 ->
        Engine.delay (Time.us 100);
        wait (n - 1)
    | None -> Alcotest.fail "compression callback never arrived"
  in
  Result.get_ok (QA.qaDecompress ds ~src:(wait 10_000))

let ownership_tests =
  [
    snapshot_case "cl: non-blocking write snapshots its source"
      (cl_upload (fun e -> Host.create_cl_host e));
    snapshot_case "cl: SVA-pinned write snapshots its source"
      (cl_upload (fun e -> Host.create_cl_host ~sva:true e));
    snapshot_case "cl: NAK resend of a cached ref carries the snapshot"
      cl_upload_ref;
    snapshot_case "nc: load tensor snapshots its source"
      (nc_upload (fun e -> Host.create_nc_host e));
    snapshot_case "nc: SVA-pinned load tensor snapshots its source"
      (nc_upload (fun e -> Host.create_nc_host ~sva:true e));
    snapshot_case "nc: NAK resend of a cached tensor carries the snapshot"
      (nc_upload ~cached:true (fun e ->
           Host.create_nc_host ~transfer_cache:(mib 4) e));
    snapshot_case "st: async host-to-device copy snapshots its source"
      st_upload;
    snapshot_case "qa: submitted compression snapshots its source" qa_upload;
    Alcotest.test_case "cl: blocking reads return size bytes, each its own"
      `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_cl_host e in
            let guest = Host.add_cl_vm host ~name:"g0" in
            let api = guest.Host.g_api in
            let module CL = (val api) in
            let ctx, q = cl_queue api in
            let m = ok (CL.clCreateBuffer ctx ~size:256) in
            cl_write api q m (Bytes.init 256 Char.chr);
            let read ~offset ~size =
              fst
                (ok
                   (CL.clEnqueueReadBuffer q m ~blocking:true ~offset ~size
                      ~wait_list:[] ~want_event:false))
            in
            let a = read ~offset:0 ~size:256 and b = read ~offset:0 ~size:256 in
            Alcotest.(check int) "full read length" 256 (Bytes.length a);
            Alcotest.(check bool) "a fresh buffer per call" false (a == b);
            scribble a;
            Alcotest.(check bytes) "the second read is untouched"
              (Bytes.init 256 Char.chr) b;
            let part = read ~offset:16 ~size:32 in
            Alcotest.(check bytes) "partial read is exactly size bytes"
              (Bytes.init 32 (fun i -> Char.chr (16 + i)))
              part));
  ]

let () =
  Alcotest.run "ava_core"
    [
      ("techniques", technique_tests);
      ("async", async_tests);
      ("batching", batching_tests);
      ("isolation", isolation_tests);
      ("conformance", conformance_tests);
      ("policies", policy_tests);
      ("migration", migration_tests);
      ("swap", swap_tests);
      ("mvnc", nc_tests);
      ("ownership", ownership_tests);
    ]
