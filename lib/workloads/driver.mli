(** Measurement driver: runs workloads on fresh simulated deployments
    and reports end-to-end virtual times and ratios. *)

open Ava_sim
open Ava_core

module Transport = Ava_transport.Transport

val time_cl :
  ?technique:Host.technique ->
  ?sync_only:bool ->
  ?batching:bool ->
  ((module Ava_simcl.Api.S) -> unit) ->
  Time.t
(** End-to-end virtual duration of a SimCL program on a fresh stack
    (native when [technique] is omitted).  [sync_only] deploys the
    unoptimized spec; [batching] enables stub-side API batching. *)

val time_nc :
  ?virtualized:bool -> ((module Ava_simnc.Api.S) -> unit) -> Time.t

(** Remoted-run profile: end-to-end time plus the wire/cache measurements
    the transfer-cache evaluation needs, and (with [~obs:true]) per-phase
    latency attribution. *)
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

val profile_cl :
  ?technique:Host.technique ->
  ?transfer_cache:int ->
  ?sync_only:bool ->
  ?obs:bool ->
  ?sva:bool ->
  ?doorbell:Transport.doorbell_cfg ->
  ?devfaults:Ava_device.Devfault.t ->
  ?tdr:Host.tdr_policy ->
  ?breaker:Ava_remoting.Policy.Breaker.config ->
  ((module Ava_simcl.Api.S) -> unit) ->
  profile
(** Run a SimCL program remoted (AvA over the shm ring by default) with
    the given transfer-cache capacity in bytes (0 = cache off).
    [sync_only] deploys the unoptimized all-sync spec.  [obs] arms
    per-call latency attribution (passive: [pr_ns] is bit-identical
    either way).  [sva] arms shared virtual addressing and [doorbell]
    arms doorbell coalescing, as in {!Host.create_cl_host}.
    [devfaults]/[tdr]/[breaker] arm the fault-domain machinery for
    chaos profiling (all off by default). *)

val profile_nc :
  ?transfer_cache:int ->
  ?obs:bool ->
  ?sva:bool ->
  ?doorbell:Transport.doorbell_cfg ->
  ?devfaults:Ava_device.Devfault.t ->
  ?tdr:Host.tdr_policy ->
  ?breaker:Ava_remoting.Policy.Breaker.config ->
  ((module Ava_simnc.Api.S) -> unit) ->
  profile
(** MVNC counterpart of {!profile_cl}. *)

type row = {
  row_name : string;
  native_ns : Time.t;
  subject_ns : Time.t;
  relative : float;  (** subject / native *)
}

val relative_runtime : native:Time.t -> subject:Time.t -> float

val fig5_ncs : ?inferences:int -> unit -> row
(** Figure 5 (NCS side): Inception v3. *)

(** §5 async ablation rows. *)
type ablation_row = {
  ab_name : string;
  ab_native_ns : Time.t;
  ab_async_ns : Time.t;  (** annotated-async spec *)
  ab_sync_ns : Time.t;  (** unoptimized all-sync spec *)
}

val pp_ablation_row : Format.formatter -> ablation_row -> unit

val mean : row list -> float
val pp_row : Format.formatter -> row -> unit
