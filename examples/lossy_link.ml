(* Fault injection and recovery on a lossy guest link.

   Deploys the full AvA stack with seeded drop/duplicate/corrupt/delay
   faults on the guest<->router transport and the stub's retransmission
   watchdog armed, runs a Rodinia workload to completion despite the
   losses, then bounces the API server mid-run and lets retransmission,
   idempotent replay and router requeue recover the in-flight calls. *)

module Faults = Ava_transport.Faults
module Transport = Ava_transport.Transport
module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Router = Ava_remoting.Router

open Ava_sim
open Ava_core
open Ava_workloads

let () =
  let b = Option.get (Rodinia.find "bfs") in

  (* Clean run for reference. *)
  let clean =
    let e = Engine.create () in
    let host = Host.create_cl_host e in
    let guest =
      Host.add_cl_vm host ~technique:(Host.Ava Transport.Network) ~name:"vm0"
    in
    Engine.run_process e (fun () ->
        b.Rodinia.run guest.Host.g_api;
        Engine.now e)
  in
  Fmt.pr "clean run:            %a@." Time.pp clean;

  (* Same workload over a lossy link: 1%% drop, 1%% corrupt, 0.5%%
     duplicate, 2%% delayed.  Every loss is recovered by the stub's
     seq-based retransmission; the server executes each call once. *)
  let e = Engine.create () in
  let host = Host.create_cl_host e in
  let faults = Faults.create ~seed:2026L Faults.light in
  let guest =
    Host.add_cl_vm host ~technique:(Host.Ava Transport.Network) ~faults
      ~retry:Stub.default_retry ~name:"vm0"
  in
  let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
  (* Bounce the API server mid-run: messages arriving while it is down
     are lost; restart + requeue + retransmission recover them. *)
  Engine.spawn e (fun () ->
      Engine.delay (clean / 2);
      Server.crash host.Host.server ~vm_id;
      Engine.delay (Time.ms 2);
      Server.restart host.Host.server ~vm_id;
      ignore (Router.requeue_in_flight host.Host.router ~vm_id));
  let faulty =
    Engine.run_process e (fun () ->
        b.Rodinia.run guest.Host.g_api;
        Engine.now e)
  in
  Fmt.pr "lossy run:            %a (%.3fx)@." Time.pp faulty
    (float_of_int faulty /. float_of_int clean);

  let s = Faults.stats faults in
  Fmt.pr "injected:             %d dropped, %d corrupted, %d duplicated, \
          %d delayed (of %d messages)@."
    s.Faults.dropped s.Faults.corrupted s.Faults.duplicated s.Faults.delayed
    s.Faults.sealed_msgs;
  Fmt.pr "caught on receive:    %d checksum rejects@."
    s.Faults.checksum_rejects;
  Fmt.pr "@.%a" (Report.pp host) [ guest ]
