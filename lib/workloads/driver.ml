(* Measurement driver: runs workloads on fresh simulated deployments and
   reports end-to-end virtual times and ratios. *)

module Transport = Ava_transport.Transport

open Ava_sim
open Ava_core

(* Run a SimCL program on a fresh engine/stack; returns end-to-end
   virtual nanoseconds.  [sync_only] deploys the unoptimized spec. *)
let time_cl ?(technique : Host.technique option) ?(sync_only = false)
    ?(batching = false) program =
  let e = Engine.create () in
  let finished = ref None in
  Engine.spawn e (fun () ->
      (match technique with
      | None ->
          let api, _ = Host.native_cl e in
          program api
      | Some tech ->
          let host = Host.create_cl_host ~sync_only e in
          let guest =
            Host.add_cl_vm host ~technique:tech ~batching ~name:"guest"
          in
          program guest.Host.g_api);
      finished := Some (Engine.now e));
  Engine.run e;
  match !finished with
  | Some t -> t
  | None -> failwith "workload stalled"

let time_nc ?(virtualized = false) program =
  let e = Engine.create () in
  let finished = ref None in
  Engine.spawn e (fun () ->
      (if virtualized then begin
         let host = Host.create_nc_host e in
         let guest = Host.add_nc_vm host ~name:"guest" in
         program guest.Host.ng_api
       end
       else begin
         let api, _ = Host.native_nc e in
         program api
       end);
      finished := Some (Engine.now e));
  Engine.run e;
  match !finished with
  | Some t -> t
  | None -> failwith "workload stalled"

(* Remoted-run profile: end-to-end time plus the wire/cache measurements
   the transfer-cache evaluation needs, and (with [~obs:true]) the
   per-phase latency attribution the observability evaluation needs. *)
type profile = {
  pr_ns : Time.t;  (** end-to-end virtual nanoseconds *)
  pr_wire_bytes : int;  (** bytes through the router, both directions *)
  pr_cache_hits : int;
  pr_cache_misses : int;
  pr_cache_saved_bytes : int;  (** payload bytes served from the store *)
  pr_cache_evictions : int;
  pr_device_lost : int;  (** calls the server failed with device-lost *)
  pr_tdr_resets : int;  (** watchdog-triggered device resets *)
  pr_quarantined : int;  (** calls rejected by open circuit breakers *)
  pr_phases : (string * Ava_obs.Hist.summary) list;
      (** per-phase latency summaries in pipeline order, phases with no
          samples omitted; empty when obs was off *)
  pr_call_latency : Ava_obs.Hist.summary option;
      (** end-to-end per-call latency; [None] when obs was off *)
}

let obs_phases = function
  | None -> []
  | Some o ->
      List.filter_map
        (fun (p, s) ->
          if s.Ava_obs.Hist.h_count = 0 then None
          else Some (Ava_obs.Obs.phase_name p, s))
        (Ava_obs.Obs.phase_summaries o)

(* Run a SimCL program remoted (AvA over the shm ring by default) with
   the given transfer-cache capacity, measuring wire bytes and content
   store counters alongside end-to-end time.  [devfaults]/[tdr]/[breaker]
   arm the fault-domain machinery for chaos profiling; [obs] arms
   per-call latency attribution (passive: end-to-end times are
   bit-identical either way); [sync_only] deploys the unoptimized
   all-sync spec. *)
let profile_cl ?(technique = Host.Ava Transport.Shm_ring)
    ?(transfer_cache = 0) ?(sync_only = false) ?(obs = false) ?sva ?doorbell
    ?devfaults ?tdr ?breaker program =
  let e = Engine.create () in
  let registry = if obs then Some (Ava_obs.Obs.create ()) else None in
  let result = ref None in
  Engine.spawn e (fun () ->
      let host =
        Host.create_cl_host ~transfer_cache ~sync_only ?sva ?doorbell
          ?devfaults ?tdr ?obs:registry e
      in
      let guest = Host.add_cl_vm host ~technique ?breaker ~name:"guest" in
      program guest.Host.g_api;
      let c = Ava_remoting.Server.cache_totals host.Host.server in
      result :=
        Some
          {
            pr_ns = Engine.now e;
            pr_wire_bytes = Ava_hv.Vm.bytes_transferred guest.Host.g_vm;
            pr_cache_hits = c.Ava_remoting.Server.cs_hits;
            pr_cache_misses = c.Ava_remoting.Server.cs_misses;
            pr_cache_saved_bytes = c.Ava_remoting.Server.cs_saved_bytes;
            pr_cache_evictions = c.Ava_remoting.Server.cs_evictions;
            pr_device_lost = Ava_remoting.Server.device_lost host.Host.server;
            pr_tdr_resets = Ava_remoting.Server.tdr_resets host.Host.server;
            pr_quarantined = Ava_remoting.Router.quarantined host.Host.router;
            pr_phases = obs_phases registry;
            pr_call_latency =
              Option.map Ava_obs.Obs.total_summary registry;
          });
  Engine.run e;
  match !result with
  | Some p -> p
  | None -> failwith "workload stalled"

(* MVNC counterpart of [profile_cl]. *)
let profile_nc ?(transfer_cache = 0) ?(obs = false) ?sva ?doorbell ?devfaults
    ?tdr ?breaker program =
  let e = Engine.create () in
  let registry = if obs then Some (Ava_obs.Obs.create ()) else None in
  let result = ref None in
  Engine.spawn e (fun () ->
      let host =
        Host.create_nc_host ~transfer_cache ?sva ?doorbell ?devfaults ?tdr
          ?obs:registry e
      in
      let guest = Host.add_nc_vm host ?breaker ~name:"guest" in
      program guest.Host.ng_api;
      let c = Ava_remoting.Server.cache_totals host.Host.nc_server in
      result :=
        Some
          {
            pr_ns = Engine.now e;
            pr_wire_bytes = Ava_hv.Vm.bytes_transferred guest.Host.ng_vm;
            pr_cache_hits = c.Ava_remoting.Server.cs_hits;
            pr_cache_misses = c.Ava_remoting.Server.cs_misses;
            pr_cache_saved_bytes = c.Ava_remoting.Server.cs_saved_bytes;
            pr_cache_evictions = c.Ava_remoting.Server.cs_evictions;
            pr_device_lost =
              Ava_remoting.Server.device_lost host.Host.nc_server;
            pr_tdr_resets = Ava_remoting.Server.tdr_resets host.Host.nc_server;
            pr_quarantined =
              Ava_remoting.Router.quarantined host.Host.nc_router;
            pr_phases = obs_phases registry;
            pr_call_latency =
              Option.map Ava_obs.Obs.total_summary registry;
          });
  Engine.run e;
  match !result with
  | Some p -> p
  | None -> failwith "workload stalled"

type row = {
  row_name : string;
  native_ns : Time.t;
  subject_ns : Time.t;
  relative : float;
}

let relative_runtime ~native ~subject =
  float_of_int subject /. float_of_int native

(* Figure 5 (NCS side): Inception v3. *)
let fig5_ncs ?(inferences = 20) () =
  let native = time_nc (Inception.run ~inferences) in
  let subject = time_nc ~virtualized:true (Inception.run ~inferences) in
  {
    row_name = "inception";
    native_ns = native;
    subject_ns = subject;
    relative = relative_runtime ~native ~subject;
  }

(* §5 async ablation: per benchmark, native vs. annotated-async AvA vs.
   the unoptimized all-sync spec. *)
type ablation_row = {
  ab_name : string;
  ab_native_ns : Time.t;
  ab_async_ns : Time.t;
  ab_sync_ns : Time.t;
}

let pp_ablation_row ppf r =
  Fmt.pf ppf
    "%-12s native=%-10s async=%-10s (%.3fx) all-sync=%-10s (%.3fx) speedup=%.1f%%"
    r.ab_name
    (Time.to_string r.ab_native_ns)
    (Time.to_string r.ab_async_ns)
    (float_of_int r.ab_async_ns /. float_of_int r.ab_native_ns)
    (Time.to_string r.ab_sync_ns)
    (float_of_int r.ab_sync_ns /. float_of_int r.ab_native_ns)
    (100.0
    *. (float_of_int (r.ab_sync_ns - r.ab_async_ns)
       /. float_of_int r.ab_sync_ns))

let mean rows = Stats.mean (List.map (fun r -> r.relative) rows)

let pp_row ppf r =
  Fmt.pf ppf "%-12s native=%-10s subject=%-10s relative=%.3f" r.row_name
    (Time.to_string r.native_ns)
    (Time.to_string r.subject_ns)
    r.relative
