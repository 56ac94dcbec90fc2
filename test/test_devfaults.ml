(* Chaos suite for the device fault domains.

   The contract under test (ISSUE tentpole): seeded device faults —
   hung kernels, transient launch failures, DMA corruption, NCS USB
   unplug — stay inside the faulting VM's fault domain.  The server's
   TDR watchdog resets a wedged device and fails the guilty call with
   device-lost; the router's circuit breaker quarantines a repeatedly
   faulting VM.  A clean VM sharing the stack must neither observe
   errors nor slow down materially, the faulting VM must see proper API
   errors (never an exception or a hang), and every counter must be
   bit-identical across same-seed runs.  With the model disarmed the
   stack is bit-identical in timing to the fault-free build.

   [AVA_CHAOS_SEED] re-seeds the chaos runs (the CI chaos job sweeps a
   small seed matrix); determinism assertions hold for any seed, the
   fault-occurrence assertions for the seeds the CI pins. *)

module Transport = Ava_transport.Transport
module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Router = Ava_remoting.Router
module Policy = Ava_remoting.Policy
module Message = Ava_remoting.Message

open Ava_sim
open Ava_device
open Ava_core
open Ava_workloads
open Ava_simcl.Types

let chaos_seed = Ava_campaign.Chaos_env.seed ~default:42

let bench name = Option.get (Rodinia.find name)

let small_kernel =
  {
    Gpu.kernel_name = "chaos";
    work_items = 256;
    flops_per_item = 1e5;
    bytes_per_item = 8.0;
    action = None;
  }

(* --- device-layer fault injection ----------------------------------------- *)

let device_tests =
  [
    Alcotest.test_case "hang wedges the CP; reset fails only the culprit"
      `Quick (fun () ->
        let e = Engine.create () in
        let f =
          Devfault.create
            ~gpu:{ Devfault.gpu_none with gpu_hang = 1.0; gpu_target = Some 1 }
            ~seed:chaos_seed ()
        in
        let gpu = Gpu.create ~devfault:f e in
        Engine.run_process e (fun () ->
            let wedger = Gpu.submit ~client:1 gpu small_kernel in
            let survivor = Gpu.submit ~client:2 gpu small_kernel in
            Engine.delay (Time.us 10);
            Alcotest.(check bool) "CP wedged" true (Gpu.wedged gpu);
            Alcotest.(check (option int)) "culprit identified" (Some 1)
              (Gpu.wedged_by gpu);
            Alcotest.(check bool) "survivor still queued" true
              (not (Ivar.is_filled survivor.Gpu.done_));
            Gpu.reset gpu;
            Ivar.read wedger.Gpu.done_;
            Alcotest.(check bool) "wedged command failed" true
              wedger.Gpu.failed;
            (* Ring survivors drain normally after the reset
               (Windows-TDR semantics). *)
            Ivar.read survivor.Gpu.done_;
            Alcotest.(check bool) "survivor completed cleanly" false
              survivor.Gpu.failed;
            Alcotest.(check int) "one reset" 1 (Gpu.resets gpu);
            Alcotest.(check int) "one hang drawn" 1 (Devfault.stats f).hangs));
    Alcotest.test_case "launch failure is transient and targeted" `Quick
      (fun () ->
        let e = Engine.create () in
        let f =
          Devfault.create
            ~gpu:
              {
                Devfault.gpu_none with
                gpu_launch_fail = 1.0;
                gpu_target = Some 1;
              }
            ~seed:chaos_seed ()
        in
        let gpu = Gpu.create ~devfault:f e in
        Engine.run_process e (fun () ->
            let victim = Gpu.submit ~client:1 gpu small_kernel in
            let clean = Gpu.submit ~client:2 gpu small_kernel in
            Ivar.read victim.Gpu.done_;
            Ivar.read clean.Gpu.done_;
            Alcotest.(check bool) "targeted launch failed" true
              victim.Gpu.failed;
            Alcotest.(check bool) "untargeted launch clean" false
              clean.Gpu.failed;
            Alcotest.(check int) "counted" 1
              (Devfault.stats f).launch_failures;
            Alcotest.(check int) "no reset needed" 0 (Gpu.resets gpu)));
    Alcotest.test_case "DMA corruption flips exactly one byte" `Quick
      (fun () ->
        let e = Engine.create () in
        let f =
          Devfault.create
            ~gpu:
              {
                Devfault.gpu_none with
                gpu_dma_corrupt = 1.0;
                gpu_target = Some 1;
              }
            ~seed:chaos_seed ()
        in
        let gpu = Gpu.create ~devfault:f e in
        Engine.run_process e (fun () ->
            let buf = Result.get_ok (Gpu.create_buffer gpu ~size:256) in
            let src = Bytes.make 256 'x' in
            Gpu.write_buffer ~client:1 gpu ~buf ~offset:0 ~src;
            (* Read back as an untargeted client so only the write drew
               a corruption. *)
            let back = Gpu.read_buffer ~client:2 gpu ~buf ~offset:0 ~len:256 in
            let diffs = ref [] in
            Bytes.iteri
              (fun i c -> if c <> 'x' then diffs := (i, c) :: !diffs)
              back;
            (match !diffs with
            | [ (_, c) ] ->
                Alcotest.(check char) "high bit flipped"
                  (Char.chr (Char.code 'x' lxor 0x80))
                  c
            | l -> Alcotest.failf "%d bytes corrupted, want 1" (List.length l));
            Alcotest.(check int) "counted" 1
              (Devfault.stats f).dma_corruptions));
    Alcotest.test_case "NCS unplug wipes the stick; re-enumeration replugs"
      `Quick (fun () ->
        let e = Engine.create () in
        let f =
          Devfault.create
            ~ncs:{ Devfault.ncs_unplug = 1.0; ncs_reenum_ns = Time.us 500 }
            ~seed:chaos_seed ()
        in
        let ncs = Ncs.create ~devfault:f e in
        Engine.run_process e (fun () ->
            (match
               Ncs.load_graph ncs ~graph_bytes:4096 ~layer_flops:[ 1e6 ]
             with
            | exception Ncs.Device_lost -> ()
            | _ -> Alcotest.fail "unplug did not fire");
            Alcotest.(check bool) "unplugged" false (Ncs.plugged ncs);
            Alcotest.(check int) "on-stick state wiped" 0
              (Ncs.live_graphs ncs);
            Engine.delay (Time.ms 1);
            Alcotest.(check bool) "re-enumerated" true (Ncs.plugged ncs));
        let s = Devfault.stats f in
        Alcotest.(check (pair int int)) "unplug/replug counted" (1, 1)
          (s.unplugs, s.replugs));
    Alcotest.test_case "same seed, same draw sequence" `Quick (fun () ->
        let draws seed =
          let f =
            Devfault.create
              ~gpu:{ Devfault.gpu_none with gpu_hang = 0.5 }
              ~seed ()
          in
          List.init 64 (fun _ -> Devfault.gpu_hangs f ~client:0)
        in
        Alcotest.(check (list bool)) "identical schedule" (draws 7) (draws 7);
        Alcotest.(check bool) "seed changes the schedule" true
          (draws 7 <> draws 8));
  ]

(* --- disarmed bit-identity ------------------------------------------------ *)

(* Run one Rodinia benchmark on a fresh remoted stack, returning the
   completion time. *)
let timed_cl_run ?devfaults ?tdr ?breaker program =
  let e = Engine.create () in
  let host = Host.create_cl_host ?devfaults ?tdr e in
  let guest =
    Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring) ?breaker
      ~name:"guest"
  in
  Engine.run_process e (fun () ->
      program guest.Host.g_api;
      Engine.now e)

let disarmed_tests =
  [
    Alcotest.test_case "zero-probability faults are bit-identical" `Quick
      (fun () ->
        let b = bench "bfs" in
        let plain = timed_cl_run b.Rodinia.run in
        let f =
          Devfault.create ~gpu:Devfault.gpu_none ~ncs:Devfault.ncs_none
            ~seed:chaos_seed ()
        in
        let armed = timed_cl_run ~devfaults:f b.Rodinia.run in
        Alcotest.(check int) "identical virtual time" plain armed;
        let s = Devfault.stats f in
        Alcotest.(check int) "no faults drawn" 0
          (s.hangs + s.launch_failures + s.dma_corruptions + s.unplugs));
    Alcotest.test_case "armed TDR never fires on a clean run" `Quick
      (fun () ->
        let b = bench "nn" in
        (* nn has the longest single kernel of the suite (~8 ms): the
           default 50 ms floor must clear it without a false trip. *)
        let plain = timed_cl_run b.Rodinia.run in
        let armed = timed_cl_run ~tdr:Host.default_tdr b.Rodinia.run in
        Alcotest.(check int) "identical virtual time" plain armed);
    Alcotest.test_case "armed breaker never trips on a clean run" `Quick
      (fun () ->
        let b = bench "bfs" in
        let plain = timed_cl_run b.Rodinia.run in
        let armed =
          timed_cl_run ~breaker:Policy.Breaker.default_config b.Rodinia.run
        in
        Alcotest.(check int) "identical virtual time" plain armed);
    Alcotest.test_case "clean profile reports zero fault counters" `Quick
      (fun () ->
        let b = bench "bfs" in
        let p =
          Driver.profile_cl ~tdr:Host.default_tdr
            ~breaker:Policy.Breaker.default_config b.Rodinia.run
        in
        Alcotest.(check int) "no device-lost" 0 p.Driver.pr_device_lost;
        Alcotest.(check int) "no tdr resets" 0 p.Driver.pr_tdr_resets;
        Alcotest.(check int) "no quarantine" 0 p.Driver.pr_quarantined);
    Alcotest.test_case "Inception: zero-probability faults are bit-identical"
      `Slow (fun () ->
        let run ?devfaults () =
          let e = Engine.create () in
          let host = Host.create_nc_host ?devfaults e in
          let guest = Host.add_nc_vm host ~name:"guest" in
          Engine.run_process e (fun () ->
              Inception.run ~inferences:5 guest.Host.ng_api;
              Engine.now e)
        in
        let plain = run () in
        let f =
          Devfault.create ~ncs:Devfault.ncs_none ~seed:chaos_seed ()
        in
        let armed = run ~devfaults:f () in
        Alcotest.(check int) "identical virtual time" plain armed;
        Alcotest.(check int) "no unplugs drawn" 0 (Devfault.stats f).unplugs);
  ]

(* --- API-visible degradation ---------------------------------------------- *)

(* Retry clFinish through transient device-lost errors; every error on
   the way must be CL_DEVICE_NOT_AVAILABLE. *)
let drain_finish (module CL : Ava_simcl.Api.S) queue =
  let errors = ref 0 in
  let rec go n =
    if n > 5 then Alcotest.fail "clFinish never recovered"
    else
      match CL.clFinish queue with
      | Ok () -> ()
      | Error Device_not_available ->
          incr errors;
          go (n + 1)
      | Error err ->
          Alcotest.failf "unexpected error: %s" (error_to_string err)
  in
  go 0;
  !errors

let api_tests =
  [
    Alcotest.test_case
      "native: failed launch surfaces once as CL_DEVICE_NOT_AVAILABLE" `Quick
      (fun () ->
        let e = Engine.create () in
        let f =
          Devfault.create
            ~gpu:{ Devfault.gpu_none with gpu_launch_fail = 1.0 }
            ~seed:chaos_seed ()
        in
        let gpu = Gpu.create ~devfault:f e in
        let kd = Ava_simcl.Kdriver.create gpu in
        let api, _ = Ava_simcl.Native.create kd in
        let module CL = (val api) in
        Engine.run_process e (fun () ->
            let s = Clutil.open_session api in
            let k = List.hd (Clutil.build_kernels s [ ("k", 1e5, 8.0) ]) in
            Clutil.launch s k ~global:64 ~local:8;
            (match CL.clFinish s.Clutil.queue with
            | Error Device_not_available -> ()
            | Ok () -> Alcotest.fail "failed launch went unreported"
            | Error err ->
                Alcotest.failf "unexpected error: %s" (error_to_string err));
            (* The failure flag is one-shot: the queue is usable again. *)
            Alcotest.(check bool) "queue recovered" true
              (CL.clFinish s.Clutil.queue = Ok ())));
    Alcotest.test_case "remoted: TDR fails the wedged call with device-lost"
      `Quick (fun () ->
        let e = Engine.create () in
        let f =
          Devfault.create
            ~gpu:{ Devfault.gpu_none with gpu_hang = 1.0; gpu_target = Some 1 }
            ~seed:chaos_seed ()
        in
        let tdr =
          { Host.tp_factor = 20.0; tp_min_ns = Time.us 200; tp_poison = false }
        in
        let host = Host.create_cl_host ~devfaults:f ~tdr e in
        let guest =
          Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring)
            ~name:"guest"
        in
        let module CL = (val guest.Host.g_api) in
        Engine.run_process e (fun () ->
            let s = Clutil.open_session guest.Host.g_api in
            let k = List.hd (Clutil.build_kernels s [ ("k", 1e5, 8.0) ]) in
            Clutil.launch s k ~global:64 ~local:8;
            let errors = drain_finish guest.Host.g_api s.Clutil.queue in
            Alcotest.(check bool) "device-lost surfaced" true (errors > 0);
            (* The silo survives the reset: the same session keeps
               working for non-kernel traffic. *)
            (match CL.clCreateBuffer s.Clutil.context ~size:64 with
            | Ok _ -> ()
            | Error err ->
                Alcotest.failf "silo lost: %s" (error_to_string err)));
        Alcotest.(check int) "one watchdog reset" 1
          (Server.tdr_resets host.Host.server);
        Alcotest.(check int) "one device reset" 1 (Gpu.resets host.Host.gpu);
        Alcotest.(check bool) "device-lost counted" true
          (Server.device_lost host.Host.server > 0);
        Alcotest.(check int) "no unexpected exceptions" 0
          (Server.unexpected_exns host.Host.server));
    Alcotest.test_case "poison policy scribbles surviving device memory"
      `Quick (fun () ->
        let e = Engine.create () in
        let f =
          Devfault.create
            ~gpu:{ Devfault.gpu_none with gpu_hang = 1.0; gpu_target = Some 1 }
            ~seed:chaos_seed ()
        in
        let tdr =
          { Host.tp_factor = 20.0; tp_min_ns = Time.us 200; tp_poison = true }
        in
        let host = Host.create_cl_host ~devfaults:f ~tdr e in
        let guest =
          Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring)
            ~name:"guest"
        in
        Engine.run_process e (fun () ->
            let s = Clutil.open_session guest.Host.g_api in
            let buf = Clutil.buffer s 64 in
            Clutil.write ~blocking:true s buf (Bytes.make 64 'x');
            let k = List.hd (Clutil.build_kernels s [ ("k", 1e5, 8.0) ]) in
            Clutil.launch s k ~global:64 ~local:8;
            ignore (drain_finish guest.Host.g_api s.Clutil.queue);
            let back = Clutil.read s buf ~size:64 in
            Alcotest.(check string) "memory poisoned"
              (String.make 64 '\xA5')
              (Bytes.to_string back)));
    Alcotest.test_case "NC API: deallocating a graph twice is an error status"
      `Quick (fun () ->
        let e = Engine.create () in
        let api, _ = Host.native_nc e in
        let module NC = (val api) in
        Engine.run_process e (fun () ->
            let graph_data =
              Ava_simnc.Graphdef.encode ~total_bytes:4096
                { Ava_simnc.Graphdef.layer_flops = [ 1e6; 2e6 ]; output_bytes = 16 }
            in
            let name =
              match NC.mvncGetDeviceName ~index:0 with
              | Ok n -> n
              | Error _ -> Alcotest.fail "no stick"
            in
            let dev =
              match NC.mvncOpenDevice ~name with
              | Ok d -> d
              | Error _ -> Alcotest.fail "open failed"
            in
            let g =
              match NC.mvncAllocateGraph dev ~graph_data with
              | Ok g -> g
              | Error _ -> Alcotest.fail "alloc failed"
            in
            Alcotest.(check bool) "first deallocate ok" true
              (NC.mvncDeallocateGraph g = Ok ());
            match NC.mvncDeallocateGraph g with
            | Error Ava_simnc.Types.Invalid_parameters -> ()
            | Ok () -> Alcotest.fail "double free accepted"
            | Error s ->
                Alcotest.failf "unexpected status: %s"
                  (Ava_simnc.Types.status_to_string s)));
  ]

(* --- full-stack chaos: per-VM isolation ----------------------------------- *)

type chaos_outcome = {
  co_clean_done_at : Time.t;
  co_victim_ok : int;
  co_victim_lost : int;  (** device-lost-class errors the victim saw *)
  co_hangs : int;
  co_tdr_resets : int;
  co_gpu_resets : int;
  co_device_lost : int;
  co_quarantined : int;
  co_trips : int;
}

(* Two VMs share one GPU host: the victim (vm 1) draws targeted hang
   faults under an armed TDR and circuit breaker; the clean neighbour
   (vm 2) runs a real Rodinia benchmark.  The victim's program is a
   hand-written loop tolerating CL_DEVICE_NOT_AVAILABLE — any other
   error, exception or hang fails the test. *)
let chaos_gpu_run ?(inspect_admin = false) ~kind ~seed () =
  let e = Engine.create () in
  let fault =
    Devfault.create
      ~gpu:{ Devfault.gpu_none with gpu_hang = 0.3; gpu_target = Some 1 }
      ~seed ()
  in
  let tdr =
    { Host.tp_factor = 20.0; tp_min_ns = Time.us 100; tp_poison = false }
  in
  let host = Host.create_cl_host ~devfaults:fault ~tdr e in
  let victim =
    Host.add_cl_vm host ~technique:(Host.Ava kind)
      ~breaker:
        { Policy.Breaker.failure_threshold = 3; cooldown_ns = Time.ms 5 }
      ~name:"victim"
  in
  let clean = Host.add_cl_vm host ~technique:(Host.Ava kind) ~name:"clean" in
  let victim_id = Ava_hv.Vm.id victim.Host.g_vm in
  Alcotest.(check int) "victim is the fault target" 1 victim_id;
  let v_ok = ref 0 and v_lost = ref 0 in
  let v_done = ref false and clean_done_at = ref None in
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
        | Error err ->
            Alcotest.failf "victim enqueue: %s" (error_to_string err));
        match CL.clFinish s.Clutil.queue with
        | Ok () -> incr v_ok
        | Error Device_not_available -> incr v_lost
        | Error err ->
            Alcotest.failf "victim finish: %s" (error_to_string err)
      done;
      v_done := true);
  Engine.spawn e (fun () ->
      (bench "bfs").Rodinia.run clean.Host.g_api;
      clean_done_at := Some (Engine.now e));
  Engine.run e;
  Alcotest.(check bool) "victim ran to completion" true !v_done;
  (match !clean_done_at with
  | None -> Alcotest.fail "clean VM hung"
  | Some _ -> ());
  if inspect_admin then begin
    (match Router.breaker_info host.Host.router ~vm_id:victim_id with
    | None -> Alcotest.fail "breaker not installed"
    | Some info ->
        Alcotest.(check bool) "trips visible" true (info.Router.bi_trips > 0);
        Alcotest.(check bool) "fault replies counted" true
          (info.Router.bi_fault_replies > 0));
    (* Clearing the breaker re-admits the VM immediately. *)
    Router.clear_breaker host.Host.router ~vm_id:victim_id;
    match Router.breaker_info host.Host.router ~vm_id:victim_id with
    | Some info ->
        Alcotest.(check bool) "closed after clear" true
          (info.Router.bi_state = Policy.Breaker.Closed)
    | None -> Alcotest.fail "breaker vanished after clear"
  end;
  {
    co_clean_done_at = Option.get !clean_done_at;
    co_victim_ok = !v_ok;
    co_victim_lost = !v_lost;
    co_hangs = (Devfault.stats fault).hangs;
    co_tdr_resets = Server.tdr_resets host.Host.server;
    co_gpu_resets = Gpu.resets host.Host.gpu;
    co_device_lost = Server.device_lost host.Host.server;
    co_quarantined = Router.quarantined host.Host.router;
    co_trips = Router.breaker_trips host.Host.router ~vm_id:victim_id;
  }

(* The clean VM's solo baseline on an identical but fault-free stack. *)
let solo_clean ~kind () =
  let e = Engine.create () in
  let host = Host.create_cl_host e in
  let guest = Host.add_cl_vm host ~technique:(Host.Ava kind) ~name:"clean" in
  Engine.run_process e (fun () ->
      (bench "bfs").Rodinia.run guest.Host.g_api;
      Engine.now e)

let chaos_gate kind =
  Alcotest.test_case
    (Printf.sprintf "per-VM isolation over %s" (Transport.kind_to_string kind))
    `Slow
    (fun () ->
      let solo = solo_clean ~kind () in
      let o = chaos_gpu_run ~kind ~seed:chaos_seed () in
      (* Faults actually fired and were contained. *)
      Alcotest.(check bool) "hangs injected" true (o.co_hangs > 0);
      Alcotest.(check bool) "victim saw device-lost errors" true
        (o.co_victim_lost > 0);
      Alcotest.(check bool) "watchdog reset the device" true
        (o.co_gpu_resets > 0);
      (* The clean neighbour is unperturbed: within 5% of its solo
         fault-free run. *)
      let ratio =
        float_of_int o.co_clean_done_at /. float_of_int solo
      in
      if ratio > 1.05 then
        Alcotest.failf "clean VM degraded by %.1f%% (solo=%d shared=%d)"
          ((ratio -. 1.0) *. 100.0)
          solo o.co_clean_done_at;
      (* Same seed, same run: every fault/reset/breaker counter and the
         clean VM's completion time are bit-identical. *)
      let o2 = chaos_gpu_run ~kind ~seed:chaos_seed () in
      Alcotest.(check bool) "same-seed runs identical" true (o = o2))

let chaos_tests =
  [
    chaos_gate Transport.Shm_ring;
    chaos_gate Transport.Network;
    Alcotest.test_case "breaker quarantines and admin clears" `Slow (fun () ->
        let o =
          chaos_gpu_run ~inspect_admin:true ~kind:Transport.Shm_ring
            ~seed:chaos_seed ()
        in
        Alcotest.(check bool) "breaker tripped" true (o.co_trips > 0);
        Alcotest.(check bool) "calls were quarantined" true
          (o.co_quarantined > 0));
    Alcotest.test_case "Inception-style NC run survives unplug storms" `Slow
      (fun () ->
        (* A tolerant NCSDK loop: on MVNC_GONE the graph was wiped by an
           unplug, so the app re-allocates and keeps going — the API
           contract is that loss surfaces as a status, never as an
           exception or a hang. *)
        let run seed =
          let e = Engine.create () in
          let fault =
            Devfault.create
              ~ncs:{ Devfault.ncs_unplug = 0.12; ncs_reenum_ns = Time.us 300 }
              ~seed ()
          in
          let host = Host.create_nc_host ~devfaults:fault e in
          let guest = Host.add_nc_vm host ~name:"inception" in
          let module NC = (val guest.Host.ng_api) in
          let graph_data =
            Ava_simnc.Graphdef.encode ~total_bytes:(64 * 1024)
              {
                Ava_simnc.Graphdef.layer_flops = [ 0.2e9; 0.1e9; 0.05e9 ];
                output_bytes = 64;
              }
          in
          let input = Bytes.make 1024 '\000' in
          let gone = ref 0 in
          let finished =
            Engine.run_process e (fun () ->
                let name =
                  match NC.mvncGetDeviceName ~index:0 with
                  | Ok n -> n
                  | Error _ -> Alcotest.fail "no stick"
                in
                let dev =
                  match NC.mvncOpenDevice ~name with
                  | Ok d -> d
                  | Error _ -> Alcotest.fail "open failed"
                in
                let target = 25 in
                let done_ = ref 0 and attempts = ref 0 in
                while !done_ < target && !attempts < 500 do
                  incr attempts;
                  match NC.mvncAllocateGraph dev ~graph_data with
                  | Error Ava_simnc.Types.Gone -> incr gone
                  | Error s ->
                      Alcotest.failf "alloc: %s"
                        (Ava_simnc.Types.status_to_string s)
                  | Ok graph ->
                      let rec infer_loop () =
                        if !done_ < target then
                          match NC.mvncLoadTensor graph ~tensor:input with
                          | Error Ava_simnc.Types.Gone -> incr gone
                          | Error s ->
                              Alcotest.failf "load: %s"
                                (Ava_simnc.Types.status_to_string s)
                          | Ok () -> (
                              match NC.mvncGetResult graph with
                              | Ok _ ->
                                  incr done_;
                                  infer_loop ()
                              | Error Ava_simnc.Types.Gone -> incr gone
                              | Error s ->
                                  Alcotest.failf "result: %s"
                                    (Ava_simnc.Types.status_to_string s))
                      in
                      infer_loop ();
                      (match NC.mvncDeallocateGraph graph with
                      | Ok () | Error _ -> ())
                done;
                Alcotest.(check int) "all inferences completed" target !done_;
                Engine.now e)
          in
          let s = Devfault.stats fault in
          (finished, !gone, s.unplugs, s.replugs)
        in
        let t1, g1, u1, r1 = run chaos_seed in
        Alcotest.(check bool) "unplugs fired" true (u1 > 0);
        Alcotest.(check bool) "loss surfaced as MVNC_GONE" true (g1 > 0);
        Alcotest.(check bool) "stick re-enumerated" true (r1 > 0);
        let t2, g2, u2, r2 = run chaos_seed in
        Alcotest.(check bool) "same-seed runs identical" true
          ((t1, g1, u1, r1) = (t2, g2, u2, r2)));
  ]

(* --- retry jitter (satellite: decorrelated resend schedules) -------------- *)

(* Give-up time of one call into a black hole: the watchdog walks its
   full (jittered) backoff schedule, then synthesizes a timeout reply. *)
let giveup_time ~vm_id ~jitter =
  let e = Engine.create () in
  let plan =
    Result.get_ok (Ava_codegen.Plan.compile (Ava_spec.Specs.load_simcl ()))
  in
  let stub_end, hole_end = Transport.direct e in
  Engine.spawn e (fun () ->
      let rec drop () =
        ignore (Transport.recv hole_end);
        drop ()
      in
      drop ());
  let retry =
    { Stub.timeout_ns = Time.ms 1; max_retries = 6; backoff = 2.0; jitter }
  in
  let stub = Stub.create ~retry e ~vm_id ~plan ~ep:stub_end in
  Engine.run_process e (fun () ->
      let t0 = Engine.now e in
      (match
         Stub.invoke ~force_sync:true stub ~fn:"clGetPlatformIDs"
           ~args:[]
       with
      | Ok (Some reply) ->
          Alcotest.(check int) "synthesized timeout"
            Server.status_timeout reply.Message.reply_status
      | _ -> Alcotest.fail "expected a synthesized timeout reply");
      Engine.now e - t0)

let jitter_tests =
  [
    Alcotest.test_case "jitter decorrelates per-VM resend schedules" `Quick
      (fun () ->
        (* Without jitter every VM walks the same exponential schedule —
           synchronized retry storms.  With it, same policy but distinct
           VM ids give distinct resend timestamps, each within the
           +/-25% band of the base schedule, and each VM's schedule is
           deterministic across runs. *)
        let base1 = giveup_time ~vm_id:1 ~jitter:0.0 in
        let base2 = giveup_time ~vm_id:2 ~jitter:0.0 in
        Alcotest.(check int) "no jitter: perfectly correlated" base1 base2;
        let j1 = giveup_time ~vm_id:1 ~jitter:0.25 in
        let j2 = giveup_time ~vm_id:2 ~jitter:0.25 in
        Alcotest.(check bool) "jitter decorrelates the VMs" true (j1 <> j2);
        let band t =
          let r = float_of_int t /. float_of_int base1 in
          r > 0.7 && r < 1.3
        in
        Alcotest.(check bool) "vm1 within the jitter band" true (band j1);
        Alcotest.(check bool) "vm2 within the jitter band" true (band j2);
        Alcotest.(check int) "per-VM schedule is deterministic" j1
          (giveup_time ~vm_id:1 ~jitter:0.25));
  ]

let () =
  Alcotest.run "ava_devfaults"
    [
      ("device", device_tests);
      ("disarmed", disarmed_tests);
      ("api", api_tests);
      ("chaos", chaos_tests);
      ("jitter", jitter_tests);
    ]
