(** Deployment report: one readable snapshot of a running AvA stack —
    the administrator's view implied by §4.3's administration interface.
    Aggregates guest-library, router, server and device statistics. *)

open Ava_sim

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

(** One pool device's row: residency, load and fault traffic, so an
    administrator can see placement and evacuations at a glance. *)
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

(** Pool-level counters. *)
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
  r_swap : (int * int * int) option;
      (** resident bytes, evictions, restores, summed over the per-device
          swap managers; [None] when swapping is off *)
  r_cache : Ava_remoting.Server.cache_stats;
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

val guest_stats : Host.cl_guest -> guest_stats
val snapshot : Host.cl_host -> Host.cl_guest list -> t
val pp : Format.formatter -> t -> unit
val to_string : t -> string
