(* Deployment report: one readable view of a running AvA stack — the
   administrator's view the paper's §4.3 administration interface
   implies.  Every counter is read from its layer's accessor at print
   time; device-side counters are summed across the pool's servers and
   GPUs (the [host.server] / [host.gpu] singletons are only device 0). *)

module Stub = Ava_remoting.Stub
module Router = Ava_remoting.Router
module Server = Ava_remoting.Server
module Swap = Ava_remoting.Swap
module Vm = Ava_hv.Vm
module Obs = Ava_obs.Obs
module Hist = Ava_obs.Hist
module Pool = Host.Pool

open Ava_sim
open Ava_device

let sum xs f = List.fold_left (fun acc x -> acc + f x) 0 xs

(* One pool device's row: residency, load and fault traffic, so an
   administrator can see placement and evacuations at a glance. *)
let pp_device pool ppf (d : Pool.device_stats) =
  let gpu = Pool.gpu pool d.ds_id in
  Fmt.pf ppf
    "    dev%-2d %-5s vms=[%s] load=%a busy=%a kernels=%-5d calls=%-6d \
     mem=%dB dma=%dB"
    d.ds_id
    (if d.ds_healthy then "ok" else "LOST")
    (String.concat ";" (List.map string_of_int d.ds_resident))
    Time.pp d.ds_load_ns Time.pp d.ds_busy_ns d.ds_kernels
    (Server.executed (Pool.server pool d.ds_id))
    (Devmem.used (Gpu.mem gpu))
    (Dma.bytes_moved (Gpu.dma gpu));
  if d.ds_evac_in > 0 || d.ds_evac_out > 0 then
    Fmt.pf ppf " evac=%d/%d" d.ds_evac_in d.ds_evac_out;
  Fmt.pf ppf "@."

(* Pass-through and full-virt guests have no stub: their stub counters
   read 0. *)
let pp_guest ppf (g : Host.cl_guest) =
  let vm = g.g_vm in
  let stat f = Option.fold ~none:0 ~some:f g.g_stub in
  Fmt.pf ppf
    "  vm%-3d %-10s %-16s calls=%-6d sync=%-5d async=%-5d batches=%-4d \
     upcalls=%-3d bytes=%d"
    (Vm.id vm) (Vm.name vm)
    (Host.technique_to_string g.g_technique)
    (Vm.api_calls vm) (stat Stub.sync_calls) (stat Stub.async_calls)
    (stat Stub.batches_sent) (stat Stub.upcalls_received)
    (Vm.bytes_transferred vm);
  let retries = stat Stub.retries and timeouts = stat Stub.timeouts in
  if retries > 0 || timeouts > 0 then
    Fmt.pf ppf " retries=%d timeouts=%d" retries timeouts;
  let refs = stat Stub.cache_refs and naks = stat Stub.cache_nak_resends in
  if refs > 0 || naks > 0 then
    Fmt.pf ppf " cache-refs=%d saved=%dB naks=%d" refs
      (stat Stub.cache_saved_bytes) naks;
  Fmt.pf ppf "@."

let pp (host : Host.cl_host) ppf guests =
  let pool = host.cl_pool and router = host.router in
  let n = Pool.n_devices pool in
  let servers = List.init n (Pool.server pool) in
  let gpus = List.init n (Pool.gpu pool) in
  let on_servers = sum servers and on_gpus = sum gpus in
  Fmt.pf ppf "deployment report at %a@." Time.pp (Engine.now host.engine);
  Fmt.pf ppf "  router: %d forwarded, %d rejected, %a scheduler pacing@."
    (Router.forwarded router) (Router.rejected router) Time.pp
    (Router.paced_ns router);
  Fmt.pf ppf "  server: %d executed, %d rejected@."
    (on_servers Server.executed)
    (on_servers Server.rejected);
  let restarts = on_servers Server.restarts
  and lost = on_servers Server.lost_while_down
  and replayed = on_servers Server.replayed
  and requeued = Router.requeued router in
  if restarts > 0 || lost > 0 || replayed > 0 || requeued > 0 then
    Fmt.pf ppf
      "  recovery: %d restarts, %d lost while down, %d replayed, %d requeued@."
      restarts lost replayed requeued;
  Fmt.pf ppf "  device: %d kernels, busy %a, %d B resident, %d B over DMA@."
    (on_gpus Gpu.kernels_executed)
    Time.pp (on_gpus Gpu.busy_ns)
    (on_gpus (fun g -> Devmem.used (Gpu.mem g)))
    (on_gpus (fun g -> Dma.bytes_moved (Gpu.dma g)));
  Fmt.pf ppf
    "  pool: %d devices, %s placement, %d migrations (%d rebalance, %d \
     evacuation), %d resteered@."
    n
    (Pool.placement_to_string (Pool.placement pool))
    (Pool.migrations pool) (Pool.rebalances pool) (Pool.evacuations pool)
    (Router.resteered router);
  List.iter (pp_device pool ppf) (Pool.stats pool);
  let device_lost = on_servers Server.device_lost
  and tdr_resets = on_servers Server.tdr_resets
  and gpu_resets = on_gpus Gpu.resets
  and quarantined = Router.quarantined router
  and unexpected = on_servers Server.unexpected_exns in
  if
    device_lost > 0 || tdr_resets > 0 || gpu_resets > 0 || unexpected > 0
    || quarantined > 0
  then
    Fmt.pf ppf
      "  faults: %d device-lost, %d tdr resets (%d device), %d quarantined, \
       %d unexpected exns@."
      device_lost tdr_resets gpu_resets quarantined unexpected;
  (match Array.to_list host.swaps with
  | [] -> ()
  | swaps ->
      Fmt.pf ppf "  swap: %d B resident, %d evictions, %d restores@."
        (sum swaps Swap.resident_bytes)
        (sum swaps Swap.evictions) (sum swaps Swap.restores));
  Option.iter
    (fun o ->
      let total = Obs.total_summary o in
      if total.Hist.h_count > 0 then begin
        Fmt.pf ppf "  latency: end-to-end %a@." Hist.pp_summary total;
        List.iter
          (fun (name, s) -> Fmt.pf ppf "    %-15s %a@." name Hist.pp_summary s)
          (Obs.phase_summaries o)
      end)
    host.obs;
  let c = Server.sum_cache_stats (List.map Server.cache_totals servers)
  and naks = on_servers Server.naks_sent in
  if c.cs_hits > 0 || c.cs_insertions > 0 || naks > 0 || c.cs_rejected > 0 then
    Fmt.pf ppf
      "  cache: %d hits, %d misses (%d naks), %d B saved, %d B resident, %d \
       evictions, %d rejected@."
      c.cs_hits c.cs_misses naks c.cs_saved_bytes c.cs_resident_bytes
      c.cs_evictions c.cs_rejected;
  List.iter (pp_guest ppf) guests
