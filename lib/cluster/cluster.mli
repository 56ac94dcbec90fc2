(** The cluster tier: many pooled hosts behind one admission/placement
    layer, with cross-host tenant migration.

    Each host is a full single-host stack ({!Ava_core.Host.create_cl_host}
    with its own devices, API servers and router); the cluster fronts
    them with pluggable admission policies and moves a live tenant
    between hosts with the pool's own migration handoff
    ({!Pool.emigrate}): drain, replay onto the destination host's
    pool, carry the reply log, move the guest's router flow across
    routers ({!Ava_remoting.Router.transfer_flow}).

    All hosts share one simulation engine — the cluster is a model of a
    fleet, driven in one deterministic virtual timeline.  A single-host
    cluster under {!Global_least_loaded} adds zero virtual-time cost
    and is bit-identical to the bare pooled stack. *)

open Ava_sim

module Host = Ava_core.Host
module Pool = Ava_pool.Pool

(** Admission policies.

    - {!Global_least_loaded}: an omniscient scheduler routes each
      tenant to the healthy host with the least live load.
    - {!Gossip}: each host keeps a load digest of the fleet and pushes
      it to [g_fanout] random peers every [g_interval_ns]; admission
      asks a random host and routes on its {e possibly-stale} view.
    - {!Affinity}: locality-aware — a tenant's affinity key hashes to a
      preferred host, spilling only off quarantined hosts. *)
type policy =
  | Global_least_loaded
  | Gossip of { g_fanout : int; g_interval_ns : Time.t }
  | Affinity

val policy_to_string : policy -> string

type tenant

type t

val create :
  ?policy:policy ->
  ?devices_per_host:int ->
  ?placement:Pool.placement ->
  ?transfer_cache:int ->
  ?sva:bool ->
  ?obs:Ava_obs.Obs.t ->
  ?seed:int64 ->
  hosts:int ->
  Engine.t ->
  t
(** Stand up [hosts] pooled hosts ([devices_per_host] devices each,
    default 2, placed by [placement], default {!Pool.Least_loaded}) on
    one engine.  Each host gets a disjoint VM-id base so tenant ids
    stay globally unique.  [obs] is shared by every host, so
    {!tenant_summaries} aggregates per-tenant latency fleet-wide.
    [seed] drives gossip peer selection and admission frontend choice
    (default 7).  Gossip digest processes are spawned only for
    multi-host gossip clusters; call {!stop} before expecting
    [Engine.run] to drain. *)

val n_hosts : t -> int
val cl_host : t -> int -> Host.cl_host
val policy : t -> policy

val host_load : t -> int -> int
(** Live load of one host: summed estimated device time of its pool. *)

val host_busy_ns : t -> int -> Time.t
(** Actual accumulated device busy time across the host's GPUs. *)

val total_devices : t -> int

val quarantine_host : t -> int -> unit
(** Take the host out of admission and migration-destination rotation
    (resident tenants keep running). *)

val unquarantine_host : t -> int -> unit

(** {1 Tenants} *)

val admit : ?affinity:string -> t -> name:string -> tenant
(** Place a new tenant on a host chosen by the policy and attach it
    over the AvA remoting stack.  [affinity] is the locality key under
    {!Affinity} (defaults to [name]).
    @raise Invalid_argument when every host is quarantined. *)

val api : tenant -> (module Ava_simcl.Api.S)
val vm_id : tenant -> int
val host_of : tenant -> int
(** The host currently running the tenant (follows migrations). *)

val find_tenant : t -> vm_id:int -> tenant option
val tenant_ids : t -> int list

val retire : t -> vm_id:int -> bool
(** Retire the tenant from whichever host currently runs it (same
    contract as {!Host.retire_cl_vm}). *)

val migrate_tenant : t -> vm_id:int -> dest:int -> int
(** Live cross-host migration through the pool's migration handoff
    ({!Pool.emigrate}): pause and drain on the source host, pick a
    device on [dest]'s pool, replay the record log and restore buffers
    onto it, seed the destination cursor, carry the reply log, move the
    guest's router flow across routers, detach the source; then move
    the tenant's IOMMU to [dest]'s table.  The record log travels with
    the VM's server entry, inside the handoff.  The guest
    keeps its stub, transport and seq stream throughout.  Returns bytes
    moved, 0 when refused: unknown tenant, already mid-migration,
    [dest] is its host, or [dest] has no healthy device (the tenant
    keeps running on its source host).  Must run inside a simulation
    process.
    @raise Invalid_argument when [dest] is out of range or
    quarantined. *)

val start_rebalancer : ?interval:Time.t -> t -> unit
(** Every [interval] (default 1 ms), one fleet-level {!Pool.skew_pick}
    step over the healthy hosts in id order: when the hottest host's
    load exceeds [Pool.default_rebalance.rb_skew] (1.5) times the
    healthy average, migrate the resident tenant whose load
    best halves the hot-cold gap onto the coldest host; among equally
    good tenants the newest admission wins.  Stopped by {!stop}. *)

val stop : t -> unit
(** Quiesce gossip and rebalancer processes so [Engine.run] drains. *)

(** {1 Counters} *)

val admissions : t -> int
val rejected_admissions : t -> int
val cross_migrations : t -> int

val tenant_summaries : t -> (int * Ava_obs.Hist.summary) list
(** Per-tenant end-to-end latency summaries from the shared obs
    registry (empty when created without [~obs]). *)

(** {1 Trace-driven load} *)

val run_session : (module Ava_simcl.Api.S) -> work:int -> bool
(** One tenant session: {!Ava_workloads.Clutil.vec_add} over 64
    elements with [work] (at least one) kernel launches, releasing
    every object (keeping the record log proportional to live state).
    Returns whether the bytes checked out; an API failure is [false].
    Must run inside a simulation process. *)

type trace_result = {
  tr_sessions : int;  (** sessions completed *)
  tr_failures : int;  (** sessions with wrong bytes or API failure *)
  tr_retired : int;  (** tenants retired cleanly *)
  tr_makespan : Time.t;  (** virtual completion time of the last tenant *)
}

val run_trace : t -> Tracegen.event list -> trace_result
(** Drive a generated trace: one process per tenant admits at its
    arrival time, runs its sessions ({!run_session}) no earlier than
    their timestamps, and retires at departure.  Runs the engine to
    completion (stopping gossip/rebalancer processes once every tenant
    is done) and returns the aggregate result. *)
