(* VM migration: a guest fills device buffers on GPU 0 of a two-device
   pool, is live-migrated to GPU 1 via record/replay, and keeps
   computing with its old handles.

     dune exec examples/migration_demo.exe *)

open Ava_sim
open Ava_simcl.Types
open Ava_core

let ok = function
  | Ok v -> v
  | Error e -> failwith (error_to_string e)

let () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      let host = Host.create_cl_host ~devices:2 engine in
      let pool = host.Host.cl_pool in
      let guest = Host.add_cl_vm host ~device:0 ~name:"mobile-vm" in
      let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
      let module CL = (val guest.Host.g_api) in
      let platform = List.hd (ok (CL.clGetPlatformIDs ())) in
      let device = List.hd (ok (CL.clGetDeviceIDs platform Device_gpu)) in
      let ctx = ok (CL.clCreateContext [ device ]) in
      let queue = ok (CL.clCreateCommandQueue ctx device ~profiling:false) in
      (* Build device state worth migrating. *)
      let mem = ok (CL.clCreateBuffer ctx ~size:(1024 * 1024)) in
      let secret = Bytes.init 1024 (fun i -> Char.chr (i * 7 land 0xff)) in
      ignore
        (ok
           (CL.clEnqueueWriteBuffer queue mem ~blocking:true ~offset:4096
              ~src:secret ~wait_list:[] ~want_event:false));
      let program =
        ok (CL.clCreateProgramWithSource ctx ~source:"builtin xor_bytes")
      in
      ok (CL.clBuildProgram program ~options:"");
      let kernel = ok (CL.clCreateKernel program ~name:"xor_bytes") in
      ok (CL.clFinish queue);
      Fmt.pr "guest state: 1 context, 1 queue, 1 buffer (1MiB), 1 kernel@.";

      (* Pause, drain, replay onto GPU 1, restore, move the call flow. *)
      let before = Engine.now engine in
      let copied = Host.Pool.migrate_vm pool ~vm_id ~dest:1 in
      let recorder = Option.get (Host.recorder host ~vm_id) in
      Fmt.pr "migrated at t=%s: pause=%s replayed=%d copied=%dB \
              recorded=%d pruned=%d@."
        (Time.to_string before)
        (Time.to_string (Engine.now engine - before))
        (Host.Migrate.log_length recorder)
        copied
        (Host.Migrate.recorded_count recorder)
        (Host.Migrate.pruned_count recorder);

      (* The guest continues, unaware: same handles, new silicon. *)
      let back, _ =
        ok
          (CL.clEnqueueReadBuffer queue mem ~blocking:true ~offset:4096
             ~size:1024 ~wait_list:[] ~want_event:false)
      in
      assert (Bytes.equal back secret);
      ok (CL.clSetKernelArg kernel ~index:0 (Arg_mem mem));
      ok (CL.clSetKernelArg kernel ~index:1 (Arg_mem mem));
      ok (CL.clSetKernelArg kernel ~index:2 (Arg_int 0x5c));
      ignore
        (ok
           (CL.clEnqueueNDRangeKernel queue kernel ~global_work_size:1024
              ~local_work_size:64 ~wait_list:[] ~want_event:false));
      ok (CL.clFinish queue);
      Fmt.pr "post-migration: data intact, kernels still launch — handles \
              survived.@.";
      Fmt.pr "destination GPU executed %d kernels@."
        (Ava_device.Gpu.kernels_executed (Host.Pool.gpu pool 1)));
  Engine.run engine
