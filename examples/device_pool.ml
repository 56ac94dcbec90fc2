(* Multi-device pool: placement, live migration and device-loss
   evacuation.

   Four VMs land round-robin on a two-device pool (each device has its
   own API server behind one router).  While they run, an operator
   live-migrates one VM between devices — record/replay onto the
   destination server plus a router re-steer of in-flight calls — and
   then device 0 dies outright: its innocent residents are evacuated
   onto the survivor and finish with at most device-lost-class errors.
   The deployment report shows the per-device rows throughout. *)

module Pool = Ava_pool.Pool

open Ava_sim
open Ava_core
open Ava_workloads
open Ava_simcl.Types

let () =
  let e = Engine.create () in
  let host = Host.create_cl_host ~devices:2 ~placement:Pool.Round_robin e in
  let pool = host.Host.cl_pool in

  let guests =
    List.map
      (fun name -> Host.add_cl_vm host ~name)
      [ "a"; "b"; "c"; "d" ]
  in
  List.iter
    (fun g ->
      let vm_id = Ava_hv.Vm.id g.Host.g_vm in
      Fmt.pr "%-4s placed on device %d@." (Ava_hv.Vm.name g.Host.g_vm)
        (Option.get (Pool.device_of pool ~vm_id)))
    guests;

  (* Each VM chips away at a kernel loop, tolerating only the error
     class a dying device is allowed to produce. *)
  let lost = ref 0 in
  List.iteri
    (fun i g ->
      Engine.spawn e (fun () ->
          let module CL = (val g.Host.g_api) in
          let s = Clutil.open_session g.Host.g_api in
          let k =
            List.hd (Clutil.build_kernels s [ ("work", 2e5, 8.0) ])
          in
          for _ = 1 to 10 do
            (match
               CL.clEnqueueNDRangeKernel s.Clutil.queue k
                 ~global_work_size:256 ~local_work_size:16 ~wait_list:[]
                 ~want_event:false
             with
            | Ok _ | Error Device_not_available -> ()
            | Error err -> failwith (error_to_string err));
            (match CL.clFinish s.Clutil.queue with
            | Ok () -> ()
            | Error Device_not_available -> incr lost
            | Error err -> failwith (error_to_string err));
            Engine.delay (Time.us (150 + (i * 40)))
          done))
    guests;

  (* Operator actions mid-run: one live migration, then device 0 dies. *)
  Engine.spawn e (fun () ->
      Engine.delay (Time.us 400);
      let a_id = Ava_hv.Vm.id (List.hd guests).Host.g_vm in
      let moved = Pool.migrate_vm pool ~vm_id:a_id ~dest:1 in
      Fmt.pr "@.migrated vm a to device 1 (%d bytes of buffers copied)@."
        moved;
      Engine.delay (Time.us 600);
      Fmt.pr "killing device 0...@.";
      Pool.kill_device pool ~device:0);
  Engine.run e;

  Fmt.pr "device 0 healthy: %b; evacuations: %d; migrations: %d; \
          device-lost errors seen: %d@."
    (Pool.is_healthy pool 0) (Pool.evacuations pool) (Pool.migrations pool)
    !lost;
  List.iter
    (fun g ->
      let vm_id = Ava_hv.Vm.id g.Host.g_vm in
      Fmt.pr "%-4s now on device %d@." (Ava_hv.Vm.name g.Host.g_vm)
        (Option.get (Pool.device_of pool ~vm_id)))
    guests;
  Fmt.pr "@.%a" (Report.pp host) guests
