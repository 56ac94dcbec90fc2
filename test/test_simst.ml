(* Tests for the SimST silo: the CUDA-style stream accelerator whose
   calls are mostly asynchronous enqueues.  Covers native semantics
   (stream ordering, cross-stream events, queued inference batches),
   parity of the generated remoting stack against the native stack, and
   the heterogeneous pool: capability-aware placement, same-type
   migration, and cross-capability refusal. *)

module Pool = Ava_pool.Pool

open Ava_sim
open Ava_simst
open Ava_simst.Types
open Ava_core

let ok = function
  | Ok v -> v
  | Error s -> Alcotest.failf "unexpected status %s" (status_to_string s)

let check_err name expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s" name (status_to_string expected)
  | Error s ->
      Alcotest.(check string) name
        (status_to_string expected)
        (status_to_string s)

let run_in_engine f =
  let e = Engine.create () in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e));
  Engine.run e;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test program stalled"

let i32_bytes l =
  let by = Bytes.create (4 * List.length l) in
  List.iteri (fun i v -> Bytes.set_int32_le by (4 * i) (Int32.of_int v)) l;
  by

let i32_list by =
  List.init
    (Bytes.length by / 4)
    (fun i -> Int32.to_int (Bytes.get_int32_le by (4 * i)))

(* The reference guest program: upload two vectors on a stream, add on
   the device, read back.  Exercised both natively and remoted. *)
let vadd_program ?(n = 64) (module ST : Api.S) =
  let s = ok (ST.stStreamCreate ()) in
  let a = ok (ST.stMemAlloc ~size:(4 * n)) in
  let b = ok (ST.stMemAlloc ~size:(4 * n)) in
  let out = ok (ST.stMemAlloc ~size:(4 * n)) in
  let av = List.init n (fun i -> i) and bv = List.init n (fun i -> 7 * i) in
  ok (ST.stMemcpyHtoDAsync a ~src:(i32_bytes av) s);
  ok (ST.stMemcpyHtoDAsync b ~src:(i32_bytes bv) s);
  ok (ST.stLaunchKernel s ~name:"vadd" ~a ~b ~out ~n);
  let res = ok (ST.stMemcpyDtoH ~size:(4 * n) out) in
  ok (ST.stStreamSynchronize s);
  List.iter (fun m -> ok (ST.stMemFree m)) [ a; b; out ];
  ok (ST.stStreamDestroy s);
  res

let native_tests =
  [
    Alcotest.test_case "vadd executes in stream order" `Quick (fun () ->
        run_in_engine (fun e ->
            let api, st = Native.create (Device.create e) in
            let res = vadd_program api in
            Alcotest.(check (list int))
              "out[i] = a[i] + b[i]"
              (List.init 64 (fun i -> 8 * i))
              (i32_list res);
            Alcotest.(check int) "streams drained" 0 (Native.live_streams st);
            Alcotest.(check int) "mems freed" 0 (Native.live_mems st)));
    Alcotest.test_case "scale kernel and argument validation" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let api, _ = Native.create (Device.create e) in
            let module ST = (val api) in
            let s = ok (ST.stStreamCreate ()) in
            let a = ok (ST.stMemAlloc ~size:16) in
            let out = ok (ST.stMemAlloc ~size:16) in
            ok (ST.stMemcpyHtoDAsync a ~src:(i32_bytes [ 1; 2; 3; 4 ]) s);
            ok (ST.stLaunchKernel s ~name:"scale" ~a ~b:a ~out ~n:4);
            Alcotest.(check (list int))
              "doubled" [ 2; 4; 6; 8 ]
              (i32_list (ok (ST.stMemcpyDtoH ~size:16 out)));
            check_err "unknown kernel" St_invalid_value
              (ST.stLaunchKernel s ~name:"fft" ~a ~b:a ~out ~n:4);
            check_err "n too large" St_invalid_value
              (ST.stLaunchKernel s ~name:"vadd" ~a ~b:a ~out ~n:5);
            check_err "bad stream" St_invalid_value
              (ST.stStreamSynchronize 424242)));
    Alcotest.test_case "cross-stream event wait orders the consumer" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let api, _ = Native.create (Device.create e) in
            let module ST = (val api) in
            let producer = ok (ST.stStreamCreate ()) in
            let consumer = ok (ST.stStreamCreate ()) in
            let a = ok (ST.stMemAlloc ~size:16) in
            let out = ok (ST.stMemAlloc ~size:16) in
            let ev = ok (ST.stEventCreate ()) in
            (* The producer stream uploads; the consumer stream's kernel
               must observe the upload despite living on another queue,
               because it waits on the recorded event. *)
            ok (ST.stMemcpyHtoDAsync a ~src:(i32_bytes [ 5; 6; 7; 8 ]) producer);
            ok (ST.stEventRecord ev producer);
            ok (ST.stStreamWaitEvent consumer ev);
            ok (ST.stLaunchKernel consumer ~name:"scale" ~a ~b:a ~out ~n:4);
            ok (ST.stStreamSynchronize consumer);
            Alcotest.(check (list int))
              "saw producer's data" [ 10; 12; 14; 16 ]
              (i32_list (ok (ST.stMemcpyDtoH ~size:16 out)));
            ok (ST.stEventSynchronize ev)));
    Alcotest.test_case "batch submit/collect matches reference scores"
      `Quick (fun () ->
        run_in_engine (fun e ->
            let api, _ = Native.create (Device.create e) in
            let module ST = (val api) in
            let s = ok (ST.stStreamCreate ()) in
            let batch =
              Bytes.init 32 (fun i -> Char.chr ((i * 11) land 0xff))
            in
            let ticket = ok (ST.stBatchSubmit s ~batch ~item_size:8) in
            let scores = ok (ST.stBatchCollect s ~ticket ~size:64) in
            Alcotest.(check bytes) "reference semantics"
              (Device.batch_scores ~batch ~item_size:8)
              scores;
            check_err "ticket consumed" St_invalid_value
              (ST.stBatchCollect s ~ticket ~size:64)));
    Alcotest.test_case "oversized batch is refused as queue-full" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let api, _ = Native.create (Device.create e) in
            let module ST = (val api) in
            let s = ok (ST.stStreamCreate ()) in
            let slots = Device.sm_stream.Device.queue_slots in
            let too_big = Bytes.create (4 * (slots + 1)) in
            check_err "queue full" St_queue_full
              (ST.stBatchSubmit s ~batch:too_big ~item_size:4);
            (* Exactly at capacity is fine. *)
            let full = Bytes.create (4 * slots) in
            let t = ok (ST.stBatchSubmit s ~batch:full ~item_size:4) in
            ignore (ok (ST.stBatchCollect s ~ticket:t ~size:(4 * slots)))));
    Alcotest.test_case "costed ops from two streams share one executor"
      `Quick (fun () ->
        (* The device has a single execution engine: the same kernel
           launched from two streams must take about twice as long as
           one launch, not run for free in parallel. *)
        let run launches =
          run_in_engine (fun e ->
              let api, _ = Native.create (Device.create e) in
              let module ST = (val api) in
              let n = 65536 in
              let a = ok (ST.stMemAlloc ~size:(4 * n)) in
              let streams =
                List.init launches (fun _ -> ok (ST.stStreamCreate ()))
              in
              List.iter
                (fun s ->
                  ok (ST.stLaunchKernel s ~name:"scale" ~a ~b:a ~out:a ~n))
                streams;
              List.iter (fun s -> ok (ST.stStreamSynchronize s)) streams;
              Engine.now e)
        in
        let t1 = run 1 and t2 = run 2 in
        Alcotest.(check bool)
          (Printf.sprintf "2 launches (%d ns) ~ 2x 1 launch (%d ns)" t2 t1)
          true
          (t2 > t1 + (t1 / 2)));
  ]

let virtual_tests =
  [
    Alcotest.test_case "remoted stack matches native output" `Quick
      (fun () ->
        let native_out =
          run_in_engine (fun e -> vadd_program ~n:1024 (fst (Host.native_st e)))
        in
        let virt_out =
          run_in_engine (fun e ->
              let host = Host.create_st_host e in
              let guest = Host.add_st_vm host ~name:"g0" in
              vadd_program ~n:1024 guest.Host.sg_api)
        in
        Alcotest.(check bytes) "same bytes" native_out virt_out);
    Alcotest.test_case "compute-bound work runs at near-native time" `Quick
      (fun () ->
        (* Upload once, launch many kernels, read back once: device
           time dominates and the asynchronous stub overhead must
           vanish into it.  (Copy-dominated programs legitimately pay
           the extra guest-to-host transport crossing.) *)
        let program (module ST : Api.S) =
          let n = 262144 in
          let s = ok (ST.stStreamCreate ()) in
          let a = ok (ST.stMemAlloc ~size:(4 * n)) in
          ok (ST.stMemcpyHtoDAsync a ~src:(i32_bytes [ 3; 1; 4; 1 ]) s);
          for _ = 1 to 16 do
            ok (ST.stLaunchKernel s ~name:"scale" ~a ~b:a ~out:a ~n)
          done;
          ok (ST.stStreamSynchronize s);
          ok (ST.stMemcpyDtoH ~size:16 a)
        in
        let native_out = ref Bytes.empty and virt_out = ref Bytes.empty in
        let t_native =
          run_in_engine (fun e ->
              native_out := program (fst (Host.native_st e));
              Engine.now e)
        in
        let t_virt =
          run_in_engine (fun e ->
              let host = Host.create_st_host e in
              let guest = Host.add_st_vm host ~name:"g0" in
              virt_out := program guest.Host.sg_api;
              Engine.now e)
        in
        Alcotest.(check bytes) "same bytes" !native_out !virt_out;
        let rel = float_of_int t_virt /. float_of_int t_native in
        Alcotest.(check bool)
          (Printf.sprintf "overhead %.3f < 1.25" rel)
          true (rel < 1.25));
    Alcotest.test_case "async enqueues return before the device runs them"
      `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_st_host e in
            let guest = Host.add_st_vm host ~name:"g0" in
            let module ST = (val guest.Host.sg_api) in
            let s = ok (ST.stStreamCreate ()) in
            let n = 1048576 in
            let a = ok (ST.stMemAlloc ~size:(4 * n)) in
            let before = Engine.now e in
            (* A small upload (cheap to marshal) followed by a large
               kernel: the launch must return long before the device
               has pushed 12 MB through its memory system. *)
            ok (ST.stMemcpyHtoDAsync a ~src:(Bytes.create 64) s);
            ok (ST.stLaunchKernel s ~name:"scale" ~a ~b:a ~out:a ~n);
            let enqueue_ns = Engine.now e - before in
            ok (ST.stStreamSynchronize s);
            let total_ns = Engine.now e - before in
            Alcotest.(check bool)
              (Printf.sprintf "enqueue %d ns << total %d ns" enqueue_ns
                 total_ns)
              true
              (enqueue_ns * 10 < total_ns)));
    Alcotest.test_case "batch path round-trips through remoting" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Host.create_st_host e in
            let guest = Host.add_st_vm host ~name:"g0" in
            let module ST = (val guest.Host.sg_api) in
            let s = ok (ST.stStreamCreate ()) in
            let batch = Bytes.init 24 (fun i -> Char.chr (i * 9 land 0xff)) in
            let ticket = ok (ST.stBatchSubmit s ~batch ~item_size:4) in
            Alcotest.(check bytes) "scores intact"
              (Ava_simst.Device.batch_scores ~batch ~item_size:4)
              (ok (ST.stBatchCollect s ~ticket ~size:64))));
  ]

let pool_tests =
  [
    Alcotest.test_case "capability requirement drives placement" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host =
              Host.create_st_host
                ~fleet:[ Pool.Cap_stream; Pool.Cap_npu; Pool.Cap_gpu ]
                ~placement:Pool.Round_robin e
            in
            let pool = host.Host.st_pool in
            let dev_of g =
              Option.get
                (Pool.device_of pool ~vm_id:(Ava_hv.Vm.id g.Host.sg_vm))
            in
            (* Each requirement lands on the matching device, regardless
               of what round-robin would have picked next. *)
            let npu = Host.add_st_vm host ~requires:Pool.Cap_npu ~name:"npu0" in
            let gpu = Host.add_st_vm host ~requires:Pool.Cap_gpu ~name:"gpu0" in
            let st = Host.add_st_vm host ~requires:Pool.Cap_stream ~name:"st0" in
            Alcotest.(check string) "npu vm on npu device" "npu"
              (Pool.capability_to_string (Pool.capability pool (dev_of npu)));
            Alcotest.(check string) "gpu vm on gpu device" "gpu"
              (Pool.capability_to_string (Pool.capability pool (dev_of gpu)));
            Alcotest.(check string) "stream vm on stream device" "stream"
              (Pool.capability_to_string (Pool.capability pool (dev_of st)));
            (* The NPU timing class actually backs the NPU device. *)
            let npu_dev = host.Host.st_devs.(dev_of npu) in
            Alcotest.(check int) "npu queue depth"
              Device.npu_class.Device.queue_slots
              (Device.timing npu_dev).Device.queue_slots));
    Alcotest.test_case "same-type migration preserves device memory" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host =
              Host.create_st_host
                ~fleet:[ Pool.Cap_stream; Pool.Cap_stream ]
                ~placement:Pool.Round_robin e
            in
            let pool = host.Host.st_pool in
            let guest = Host.add_st_vm host ~name:"mover" in
            let vm_id = Ava_hv.Vm.id guest.Host.sg_vm in
            let module ST = (val guest.Host.sg_api) in
            let s = ok (ST.stStreamCreate ()) in
            let m = ok (ST.stMemAlloc ~size:256) in
            let payload =
              Bytes.init 256 (fun i -> Char.chr ((i * 13) land 0xff))
            in
            ok (ST.stMemcpyHtoDAsync m ~src:payload s);
            ok (ST.stStreamSynchronize s);
            let src_dev = Option.get (Pool.device_of pool ~vm_id) in
            let dest = 1 - src_dev in
            let moved = Pool.migrate_vm pool ~vm_id ~dest in
            Alcotest.(check bool) "payload bytes moved" true (moved >= 256);
            Alcotest.(check (option int)) "resident on dest" (Some dest)
              (Pool.device_of pool ~vm_id);
            (* Old handles keep working against the replayed state. *)
            Alcotest.(check bytes) "data survived" payload
              (ok (ST.stMemcpyDtoH ~size:256 m));
            ok (ST.stLaunchKernel s ~name:"scale" ~a:m ~b:m ~out:m ~n:4);
            ok (ST.stStreamSynchronize s);
            Alcotest.(check bool) "kernel ran on destination" true
              (Device.kernels_executed host.Host.st_devs.(dest) > 0);
            Alcotest.(check int) "one migration counted" 1
              (Pool.migrations pool)));
    Alcotest.test_case "cross-capability migration is refused" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host =
              Host.create_st_host
                ~fleet:[ Pool.Cap_stream; Pool.Cap_npu ]
                ~placement:Pool.Round_robin e
            in
            let pool = host.Host.st_pool in
            let guest =
              Host.add_st_vm host ~requires:Pool.Cap_stream ~name:"pinned"
            in
            let vm_id = Ava_hv.Vm.id guest.Host.sg_vm in
            let module ST = (val guest.Host.sg_api) in
            let s = ok (ST.stStreamCreate ()) in
            let m = ok (ST.stMemAlloc ~size:64) in
            ok (ST.stMemcpyHtoDAsync m ~src:(Bytes.make 64 'x') s);
            ok (ST.stStreamSynchronize s);
            let src_dev = Option.get (Pool.device_of pool ~vm_id) in
            Alcotest.(check string) "starts on stream device" "stream"
              (Pool.capability_to_string (Pool.capability pool src_dev));
            let dest = 1 - src_dev in
            Alcotest.(check int) "migrate to NPU refused" 0
              (Pool.migrate_vm pool ~vm_id ~dest);
            Alcotest.(check (option int)) "still on source" (Some src_dev)
              (Pool.device_of pool ~vm_id);
            Alcotest.(check int) "no migration counted" 0
              (Pool.migrations pool);
            (* And the VM is still fully functional where it is. *)
            Alcotest.(check bytes) "data untouched" (Bytes.make 64 'x')
              (ok (ST.stMemcpyDtoH ~size:64 m))));
  ]

let () =
  Alcotest.run "ava_simst"
    [
      ("native", native_tests);
      ("virtual", virtual_tests);
      ("pool", pool_tests);
    ]
