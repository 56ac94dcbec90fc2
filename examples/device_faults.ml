(* Device fault domains: targeted GPU hangs contained by the TDR
   watchdog and the router's per-VM circuit breaker.

   Two VMs share one GPU.  The victim draws seeded command-processor
   hangs; the server's TDR watchdog detects each overrun, resets the
   wedged device and fails the guilty call with
   CL_DEVICE_NOT_AVAILABLE — blame-aware, so the clean neighbour's
   in-flight calls survive the reset.  Once the victim's fault budget
   trips the breaker, the router quarantines it without touching the
   WFQ, and the clean VM (running a real Rodinia benchmark) finishes
   within a few percent of its solo time.  An admin clear re-admits
   the victim at the end. *)

module Server = Ava_remoting.Server
module Router = Ava_remoting.Router
module Policy = Ava_remoting.Policy

open Ava_sim
open Ava_device
open Ava_core
open Ava_workloads
open Ava_simcl.Types

let () =
  let b = Option.get (Rodinia.find "bfs") in

  (* The clean VM's solo baseline on an identical but fault-free stack. *)
  let solo =
    let e = Engine.create () in
    let host = Host.create_cl_host e in
    let guest = Host.add_cl_vm host ~name:"clean" in
    Engine.run_process e (fun () ->
        b.Rodinia.run guest.Host.g_api;
        Engine.now e)
  in
  Fmt.pr "clean solo run:       %a@." Time.pp solo;

  (* Shared run: the victim (vm 1) draws targeted hangs under an armed
     watchdog and breaker; the neighbour shares the GPU unprotected. *)
  let e = Engine.create () in
  let fault =
    Devfault.create
      ~gpu:{ Devfault.gpu_none with gpu_hang = 0.3; gpu_target = Some 1 }
      ~seed:2026 ()
  in
  let tdr =
    { Host.tp_factor = 20.0; tp_min_ns = Time.us 100; tp_poison = false }
  in
  let host = Host.create_cl_host ~devfaults:fault ~tdr e in
  let victim =
    Host.add_cl_vm host
      ~breaker:
        { Policy.Breaker.failure_threshold = 3; cooldown_ns = Time.ms 5 }
      ~name:"victim"
  in
  let clean = Host.add_cl_vm host ~name:"clean" in
  let victim_id = Ava_hv.Vm.id victim.Host.g_vm in

  let v_ok = ref 0 and v_lost = ref 0 in
  Engine.spawn e (fun () ->
      let module CL = (val victim.Host.g_api) in
      let s = Clutil.open_session victim.Host.g_api in
      let k = List.hd (Clutil.build_kernels s [ ("chaos", 1e5, 8.0) ]) in
      for _ = 1 to 30 do
        (match
           CL.clEnqueueNDRangeKernel s.Clutil.queue k ~global_work_size:256
             ~local_work_size:16 ~wait_list:[] ~want_event:false
         with
        | Ok _ -> ()
        | Error Device_not_available -> incr v_lost
        | Error err -> failwith (error_to_string err));
        match CL.clFinish s.Clutil.queue with
        | Ok () -> incr v_ok
        | Error Device_not_available -> incr v_lost
        | Error err -> failwith (error_to_string err)
      done);
  let clean_done_at = ref None in
  Engine.spawn e (fun () ->
      b.Rodinia.run clean.Host.g_api;
      clean_done_at := Some (Engine.now e));
  Engine.run e;

  let shared = Option.get !clean_done_at in
  let s = Devfault.stats fault in
  Fmt.pr "victim:               %d calls ok, %d device-lost errors \
          (no other failure mode)@."
    !v_ok !v_lost;
  Fmt.pr "injected:             %d hangs -> %d TDR resets, %d device \
          resets, %d device-lost replies@."
    s.Devfault.hangs
    (Server.tdr_resets host.Host.server)
    (Gpu.resets host.Host.gpu)
    (Server.device_lost host.Host.server);
  Fmt.pr "breaker:              %d trips, %d calls quarantined@."
    (Router.breaker_trips host.Host.router ~vm_id:victim_id)
    (Router.quarantined host.Host.router);
  Fmt.pr "clean neighbour:      %a (%.3fx of solo)@." Time.pp shared
    (float_of_int shared /. float_of_int solo);

  (* Operator intervention: clearing the breaker re-admits the VM. *)
  Router.clear_breaker host.Host.router ~vm_id:victim_id;
  (match Router.breaker_info host.Host.router ~vm_id:victim_id with
  | Some { Router.bi_state = Policy.Breaker.Closed; _ } ->
      Fmt.pr "admin clear:          breaker closed, victim re-admitted@."
  | _ -> failwith "breaker should be closed after clear");
  Fmt.pr "@.%a" Report.pp (Report.snapshot host [ victim; clean ])
