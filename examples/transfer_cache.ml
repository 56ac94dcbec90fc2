(* The content-addressed transfer cache on an iterative deployment.

   Runs a Rodinia workload twice on one guest — first over the plain
   stack, then with the transfer cache armed, so the repeated uploads
   travel as 13-byte refs.  Finally bounces the API server mid-run: the
   restart empties the content store (it is front-end process memory),
   the guest's stale refs miss, and the cache-miss NAK / full-resend
   path heals them without losing a call. *)

module Transport = Ava_transport.Transport
module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Router = Ava_remoting.Router

open Ava_sim
open Ava_core
open Ava_workloads

let capacity = 64 * 1024 * 1024

let deploy ?(transfer_cache = 0) ?retry () =
  let e = Engine.create () in
  let host = Host.create_cl_host ~transfer_cache e in
  let guest =
    Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring) ?retry
      ~name:"vm0"
  in
  (e, host, guest)

let () =
  let b = Option.get (Rodinia.find "heartwall") in
  let twice api =
    b.Rodinia.run api;
    b.Rodinia.run api
  in

  (* Plain stack: every upload carries its payload. *)
  let e, host, guest = deploy () in
  let plain =
    Engine.run_process e (fun () ->
        twice guest.Host.g_api;
        Engine.now e)
  in
  let plain_bytes = Ava_hv.Vm.bytes_transferred guest.Host.g_vm in
  ignore host;
  Fmt.pr "plain stack:   %a, %d wire bytes@." Time.pp plain plain_bytes;

  (* Cache armed: the second run's uploads (and heartwall's repeated
     frames within each run) dedup into refs. *)
  let e, host, guest = deploy ~transfer_cache:capacity () in
  let cached =
    Engine.run_process e (fun () ->
        twice guest.Host.g_api;
        Engine.now e)
  in
  let cached_bytes = Ava_hv.Vm.bytes_transferred guest.Host.g_vm in
  Fmt.pr "cache armed:   %a, %d wire bytes (%.1f%% reduction)@." Time.pp
    cached cached_bytes
    (100.0 *. (1.0 -. (float_of_int cached_bytes /. float_of_int plain_bytes)));
  let c = Server.cache_totals host.Host.server in
  Fmt.pr "content store: %d hits, %d insertions, %d B served from cache@."
    c.Server.cs_hits c.Server.cs_insertions c.Server.cs_saved_bytes;

  (* Bounce the server mid-run: stale refs NAK and heal. *)
  let retry =
    {
      Stub.timeout_ns = Time.ms 1;
      max_retries = 40;
      backoff = 1.5;
      jitter = 0.0;
    }
  in
  let e, host, guest = deploy ~transfer_cache:capacity ~retry () in
  let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
  Engine.spawn e (fun () ->
      Engine.delay (cached / 2);
      Server.crash host.Host.server ~vm_id;
      Engine.delay (Time.ms 1);
      Server.restart host.Host.server ~vm_id;
      ignore (Router.requeue_in_flight host.Host.router ~vm_id));
  let healed =
    Engine.run_process e (fun () ->
        twice guest.Host.g_api;
        Engine.now e)
  in
  let stub = Option.get guest.Host.g_stub in
  Fmt.pr
    "restart mid-run: %a; %d naks, %d full resends, %d timeouts — every \
     stale ref healed@."
    Time.pp healed
    (Server.naks_sent host.Host.server)
    (Stub.cache_nak_resends stub) (Stub.timeouts stub);
  Fmt.pr "@.%a" (Report.pp host) [ guest ]
