(* Deployment report: one readable snapshot of a running AvA stack — the
   administrator's view the paper's §4.3 administration interface
   implies.  Aggregates guest-library, router, server and device
   statistics. *)

module Stub = Ava_remoting.Stub
module Router = Ava_remoting.Router
module Server = Ava_remoting.Server
module Swap = Ava_remoting.Swap

open Ava_sim
open Ava_device

type guest_stats = {
  gs_name : string;
  gs_vm_id : int;
  gs_technique : string;
  gs_api_calls : int;  (** calls seen by the router *)
  gs_bytes : int;  (** wire bytes through the router, both ways *)
  gs_device_time_est : int;  (** accumulated cost-unit estimates *)
  gs_sync_calls : int;
  gs_async_calls : int;
  gs_batches : int;
  gs_upcalls : int;
  gs_in_flight : int;
  gs_pending_errors : int;
  gs_retries : int;  (** watchdog resends (fault recovery) *)
  gs_timeouts : int;  (** calls that exhausted their retry budget *)
  gs_cache_refs : int;  (** payloads sent as [Blob_ref] (transfer cache) *)
  gs_cache_saved_bytes : int;  (** payload bytes elided by refs *)
  gs_cache_naks : int;  (** full resends after a cache miss *)
}

(* One pool device's row in the report: residency, load and fault
   traffic, so an administrator can see placement and evacuations at a
   glance. *)
type device_stats = {
  dv_id : int;
  dv_healthy : bool;
  dv_resident : int list;  (** vm ids, sorted *)
  dv_load_est : int;  (** accumulated cost-unit estimates of residents *)
  dv_busy : Time.t;
  dv_kernels : int;
  dv_executed : int;  (** calls executed by this device's server *)
  dv_bytes : int;  (** DMA bytes moved on this device *)
  dv_mem_used : int;
  dv_evac_in : int;
  dv_evac_out : int;
}

(* Pool-level counters. *)
type pool_stats = {
  pl_placement : string;
  pl_devices : int;
  pl_migrations : int;
  pl_evacuations : int;
  pl_rebalances : int;
  pl_resteered : int;  (** router flows live-moved between backends *)
}

type t = {
  r_at : Time.t;
  r_guests : guest_stats list;
  r_forwarded : int;
  r_rejected_router : int;
  r_requeued : int;  (** messages re-dispatched after a server restart *)
  r_executed : int;
  r_rejected_server : int;
  r_replayed : int;  (** duplicate seqs answered from the reply log *)
  r_restarts : int;
  r_lost_while_down : int;
  r_paced : Time.t;
  r_kernels : int;
  r_gpu_busy : Time.t;
  r_gpu_mem_used : int;
  r_dma_bytes : int;
  r_swap : (int * int * int) option;  (** resident, evictions, restores *)
  r_cache : Server.cache_stats;
      (** server content-store totals (transfer cache) *)
  r_naks : int;  (** cache-miss NAK messages the server sent *)
  r_device_lost : int;  (** calls failed with [status_device_lost] *)
  r_tdr_resets : int;  (** watchdog-triggered device resets *)
  r_gpu_resets : int;  (** resets the device itself performed *)
  r_unexpected_exns : int;  (** handler exceptions outside the protocol *)
  r_quarantined : int;  (** calls rejected by open circuit breakers *)
  r_devices : device_stats list;  (** per-device rows, in id order *)
  r_pool : pool_stats;
  r_phases : (string * Ava_obs.Hist.summary) list;
      (** per-phase latency attribution, merged across VMs and APIs;
          empty when the host was built without [~obs] *)
  r_total_latency : Ava_obs.Hist.summary option;
      (** end-to-end call latency; [None] when obs is disarmed *)
}

let guest_stats (guest : Host.cl_guest) =
  let vm = guest.Host.g_vm in
  let stub = guest.Host.g_stub in
  let stat f default = Option.fold ~none:default ~some:f stub in
  {
    gs_name = Ava_hv.Vm.name vm;
    gs_vm_id = Ava_hv.Vm.id vm;
    gs_technique = Host.technique_to_string guest.Host.g_technique;
    gs_api_calls = Ava_hv.Vm.api_calls vm;
    gs_bytes = Ava_hv.Vm.bytes_transferred vm;
    gs_device_time_est = Ava_hv.Vm.device_time_ns vm;
    gs_sync_calls = stat Stub.sync_calls 0;
    gs_async_calls = stat Stub.async_calls 0;
    gs_batches = stat Stub.batches_sent 0;
    gs_upcalls = stat Stub.upcalls_received 0;
    gs_in_flight = stat Stub.in_flight 0;
    gs_pending_errors = stat Stub.pending_errors 0;
    gs_retries = stat Stub.retries 0;
    gs_timeouts = stat Stub.timeouts 0;
    gs_cache_refs = stat Stub.cache_refs 0;
    gs_cache_saved_bytes = stat Stub.cache_saved_bytes 0;
    gs_cache_naks = stat Stub.cache_nak_resends 0;
  }

(* Every device-side counter is summed across the pool's servers and
   GPUs — the [host.server] / [host.gpu] singletons are only device 0. *)
let snapshot (host : Host.cl_host) guests =
  let p = host.Host.cl_pool in
  let n = Host.Pool.n_devices p in
  let servers = List.init n (Host.Pool.server p) in
  let gpus = List.init n (Host.Pool.gpu p) in
  let sum_s f = List.fold_left (fun acc s -> acc + f s) 0 servers in
  let sum_g f = List.fold_left (fun acc g -> acc + f g) 0 gpus in
  let sum_swap f =
    Array.fold_left (fun acc sw -> acc + f sw) 0 host.Host.swaps
  in
  let devices =
    List.map
      (fun (ds : Host.Pool.device_stats) ->
        let srv = Host.Pool.server p ds.Host.Pool.ds_id in
        let gpu = Host.Pool.gpu p ds.Host.Pool.ds_id in
        {
          dv_id = ds.Host.Pool.ds_id;
          dv_healthy = ds.Host.Pool.ds_healthy;
          dv_resident = ds.Host.Pool.ds_resident;
          dv_load_est = ds.Host.Pool.ds_load_ns;
          dv_busy = ds.Host.Pool.ds_busy_ns;
          dv_kernels = ds.Host.Pool.ds_kernels;
          dv_executed = Server.executed srv;
          dv_bytes = Dma.bytes_moved (Gpu.dma gpu);
          dv_mem_used = Devmem.used (Gpu.mem gpu);
          dv_evac_in = ds.Host.Pool.ds_evac_in;
          dv_evac_out = ds.Host.Pool.ds_evac_out;
        })
      (Host.Pool.stats p)
  in
  {
    r_at = Engine.now host.Host.engine;
    r_guests = List.map guest_stats guests;
    r_forwarded = Router.forwarded host.Host.router;
    r_rejected_router = Router.rejected host.Host.router;
    r_requeued = Router.requeued host.Host.router;
    r_executed = sum_s Server.executed;
    r_rejected_server = sum_s Server.rejected;
    r_replayed = sum_s Server.replayed;
    r_restarts = sum_s Server.restarts;
    r_lost_while_down = sum_s Server.lost_while_down;
    r_paced = Router.paced_ns host.Host.router;
    r_kernels = sum_g Gpu.kernels_executed;
    r_gpu_busy = sum_g Gpu.busy_ns;
    r_gpu_mem_used = sum_g (fun g -> Devmem.used (Gpu.mem g));
    r_dma_bytes = sum_g (fun g -> Dma.bytes_moved (Gpu.dma g));
    r_swap =
      (if Array.length host.Host.swaps = 0 then None
       else
         Some
           ( sum_swap Swap.resident_bytes,
             sum_swap Swap.evictions,
             sum_swap Swap.restores ));
    r_cache = Server.sum_cache_stats (List.map Server.cache_totals servers);
    r_naks = sum_s Server.naks_sent;
    r_device_lost = sum_s Server.device_lost;
    r_tdr_resets = sum_s Server.tdr_resets;
    r_gpu_resets = sum_g Gpu.resets;
    r_unexpected_exns = sum_s Server.unexpected_exns;
    r_quarantined = Router.quarantined host.Host.router;
    r_devices = devices;
    r_pool =
      {
        pl_placement = Host.Pool.placement_to_string (Host.Pool.placement p);
        pl_devices = n;
        pl_migrations = Host.Pool.migrations p;
        pl_evacuations = Host.Pool.evacuations p;
        pl_rebalances = Host.Pool.rebalances p;
        pl_resteered = Router.resteered host.Host.router;
      };
    r_phases =
      (match host.Host.obs with
      | None -> []
      | Some o ->
          List.filter_map
            (fun (p, s) ->
              if s.Ava_obs.Hist.h_count = 0 then None
              else Some (Ava_obs.Obs.phase_name p, s))
            (Ava_obs.Obs.phase_summaries o));
    r_total_latency =
      Option.map (fun o -> Ava_obs.Obs.total_summary o) host.Host.obs;
  }

let pp ppf r =
  Fmt.pf ppf "deployment report at %a@." Time.pp r.r_at;
  Fmt.pf ppf
    "  router: %d forwarded, %d rejected, %a scheduler pacing@."
    r.r_forwarded r.r_rejected_router Time.pp r.r_paced;
  Fmt.pf ppf "  server: %d executed, %d rejected@." r.r_executed
    r.r_rejected_server;
  if
    r.r_requeued > 0 || r.r_replayed > 0 || r.r_restarts > 0
    || r.r_lost_while_down > 0
  then
    Fmt.pf ppf
      "  recovery: %d restarts, %d lost while down, %d replayed, %d requeued@."
      r.r_restarts r.r_lost_while_down r.r_replayed r.r_requeued;
  Fmt.pf ppf "  device: %d kernels, busy %a, %d B resident, %d B over DMA@."
    r.r_kernels Time.pp r.r_gpu_busy r.r_gpu_mem_used r.r_dma_bytes;
  (let p = r.r_pool in
   Fmt.pf ppf
     "  pool: %d devices, %s placement, %d migrations (%d rebalance, %d \
      evacuation), %d resteered@."
     p.pl_devices p.pl_placement p.pl_migrations p.pl_rebalances
     p.pl_evacuations p.pl_resteered);
  List.iter
    (fun d ->
      Fmt.pf ppf
        "    dev%-2d %-5s vms=[%s] load=%a busy=%a kernels=%-5d calls=%-6d \
         mem=%dB dma=%dB%s@."
        d.dv_id
        (if d.dv_healthy then "ok" else "LOST")
        (String.concat ";" (List.map string_of_int d.dv_resident))
        Time.pp d.dv_load_est Time.pp d.dv_busy d.dv_kernels d.dv_executed
        d.dv_mem_used d.dv_bytes
        (if d.dv_evac_in > 0 || d.dv_evac_out > 0 then
           Printf.sprintf " evac=%d/%d" d.dv_evac_in d.dv_evac_out
         else ""))
    r.r_devices;
  if
    r.r_device_lost > 0 || r.r_tdr_resets > 0 || r.r_gpu_resets > 0
    || r.r_unexpected_exns > 0 || r.r_quarantined > 0
  then
    Fmt.pf ppf
      "  faults: %d device-lost, %d tdr resets (%d device), %d quarantined, \
       %d unexpected exns@."
      r.r_device_lost r.r_tdr_resets r.r_gpu_resets r.r_quarantined
      r.r_unexpected_exns;
  (match r.r_swap with
  | Some (resident, evictions, restores) ->
      Fmt.pf ppf "  swap: %d B resident, %d evictions, %d restores@."
        resident evictions restores
  | None -> ());
  (match r.r_total_latency with
  | Some s when s.Ava_obs.Hist.h_count > 0 ->
      Fmt.pf ppf "  latency: end-to-end %a@." Ava_obs.Hist.pp_summary s;
      List.iter
        (fun (name, ph) ->
          Fmt.pf ppf "    %-15s %a@." name Ava_obs.Hist.pp_summary ph)
        r.r_phases
  | _ -> ());
  (let c = r.r_cache in
   if
     c.Server.cs_hits > 0 || c.Server.cs_insertions > 0 || r.r_naks > 0
     || c.Server.cs_rejected > 0
   then
     Fmt.pf ppf
       "  cache: %d hits, %d misses (%d naks), %d B saved, %d B resident, %d \
        evictions, %d rejected@."
       c.Server.cs_hits c.Server.cs_misses r.r_naks c.Server.cs_saved_bytes
       c.Server.cs_resident_bytes c.Server.cs_evictions c.Server.cs_rejected);
  List.iter
    (fun g ->
      Fmt.pf ppf
        "  vm%-3d %-10s %-16s calls=%-6d sync=%-5d async=%-5d batches=%-4d \
         upcalls=%-3d bytes=%d%s@."
        g.gs_vm_id g.gs_name g.gs_technique g.gs_api_calls g.gs_sync_calls
        g.gs_async_calls g.gs_batches g.gs_upcalls g.gs_bytes
        (String.concat ""
           [
             (if g.gs_retries > 0 || g.gs_timeouts > 0 then
                Printf.sprintf " retries=%d timeouts=%d" g.gs_retries
                  g.gs_timeouts
              else "");
             (if g.gs_cache_refs > 0 || g.gs_cache_naks > 0 then
                Printf.sprintf " cache-refs=%d saved=%dB naks=%d"
                  g.gs_cache_refs g.gs_cache_saved_bytes g.gs_cache_naks
              else "");
           ]))
    r.r_guests
