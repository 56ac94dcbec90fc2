(** The device pool: N simulated accelerators, each fronted by its own
    API server and router dispatch lane, with pluggable placement of
    remoted VMs onto backends and migration-driven rebalancing.

    The fleet may be heterogeneous: each device carries a
    {!capability} tag, VMs may require one (their silo state only
    replays onto same-type devices), and placement, evacuation and the
    skew monitor all respect compatibility.

    The pool is generic over the silo state ['st]: the API-specific
    work of moving a VM's silo between devices — replaying the record
    log, restoring buffer contents — is injected as the [transfer]
    closure by the stack-assembly layer ({!Ava_core.Host}).  The pool
    owns the orchestration: placement, the one live-migration handoff
    (pause / drain / attach / transfer / flow move, within the pool or
    into another host's pool), device-loss evacuation with blame
    routing, and the periodic skew monitor. *)

open Ava_sim
open Ava_device
open Ava_hv

module Server = Ava_remoting.Server
module Router = Ava_remoting.Router

(** Placement policies for newly attached (or evacuated) VMs. *)
type placement =
  | Round_robin  (** rotate over healthy devices *)
  | Least_loaded  (** least accumulated estimated device time *)
  | Bin_pack  (** best-fit on declared buffer footprint *)

val placement_to_string : placement -> string
val placement_of_string : string -> placement option

(** Skew monitor configuration: every [rb_interval], migrate one VM off
    the hottest device when its load exceeds [rb_skew] times the
    healthy average. *)
type rebalance = { rb_interval : Time.t; rb_skew : float }

val default_rebalance : rebalance
(** 5 ms interval, 1.5x skew. *)

(** Device capability tags for heterogeneous fleets. *)
type capability = Cap_gpu | Cap_npu | Cap_stream

val capability_to_string : capability -> string

type phys = {
  ph_cap : capability;
  ph_busy_ns : unit -> Time.t;
  ph_kernels : unit -> int;
  ph_capacity : int;  (** device-memory capacity, bytes *)
  ph_wedged_by : unit -> int option;
  ph_kill : unit -> unit;
  ph_gpu : Gpu.t option;
}
(** The pool's view of one physical accelerator: a capability tag plus
    the read-outs and controls orchestration needs, as closures so any
    device model can sit behind a lane. *)

val phys_of_gpu : Gpu.t -> phys
(** Wrap a simulated GPU as a [Cap_gpu] pool device. *)

type 'st device = {
  dev_id : int;
  dev_phys : phys;
  dev_server : 'st Server.t;
  mutable dev_healthy : bool;
  mutable dev_evac_in : int;
  mutable dev_evac_out : int;
}

type 'st t

val create :
  Engine.t ->
  router:Router.t ->
  placement:placement ->
  transfer:(vm_id:int -> src:'st device -> dst:'st device -> int) ->
  (phys * 'st Server.t) list ->
  'st t
(** [create engine ~router ~placement ~transfer devices] assumes
    ownership of [devices] in order (device ids are list positions) and
    registers a router dispatch lane per device beyond lane 0.
    [transfer] performs the API-specific silo copy for a VM already
    attached to both devices' servers, handing its record log to the
    destination entry ({!Server.hand_over_log}) and returning the bytes
    moved; [dst] may belong to another pool (a cross-host move).  Wrap
    GPUs with {!phys_of_gpu}. *)

val drain_window : Time.t
(** The quiesce window a migration waits after pausing the source
    worker: 200 us. *)

(** {1 Read-out} *)

val n_devices : 'st t -> int
val placement : 'st t -> placement
val device : 'st t -> int -> 'st device

val gpu : 'st t -> int -> Gpu.t
(** The concrete GPU behind a [Cap_gpu] device.
    @raise Invalid_argument for non-GPU devices. *)

val capability : 'st t -> int -> capability
val server : 'st t -> int -> 'st Server.t
val is_healthy : 'st t -> int -> bool

val resident : 'st t -> int -> int list
(** VM ids resident on the device, sorted.  The pool's VM table is the
    only residency record; this and every load read-out derive from
    it. *)

val device_of : 'st t -> vm_id:int -> int option
(** The device currently hosting the VM. *)

val load_of : 'st t -> int -> Time.t
(** Estimated device load: accumulated charged device time of the
    residents (the router's spec-estimate accounting). *)

val migrations : 'st t -> int
val evacuations : 'st t -> int

val rebalances : 'st t -> int
(** Migrations initiated by {!rebalance_now} / the skew monitor. *)

val retires : 'st t -> int
(** Successful {!retire_vm} calls (refusals not counted). *)

val aborted_migrations : 'st t -> int
(** Migrations abandoned because their VM retired during the drain
    window. *)

val vm_of : 'st t -> vm_id:int -> Vm.t option
(** The VM object behind a resident vm id. *)

(** Per-device snapshot for reports and benchmarks. *)
type device_stats = {
  ds_id : int;
  ds_capability : capability;
  ds_healthy : bool;
  ds_resident : int list;
  ds_load_ns : Time.t;  (** estimated (charged) device time *)
  ds_busy_ns : Time.t;  (** actual device busy time *)
  ds_kernels : int;
  ds_footprint : int;  (** declared resident footprint, bytes *)
  ds_evac_in : int;
  ds_evac_out : int;
}

val stats : 'st t -> device_stats list
(** In device-id order. *)

(** {1 Control-plane policy}

    The decisions both tiers make — placement, the pool's skew monitor,
    the cluster's admission and fleet rebalancer, gossip — go through
    these three, so each policy and its tie rules exist once. *)

val argmin : ('a -> int) -> 'a list -> 'a
(** [argmin key xs]: the first element of [xs] minimising [key]; on
    ties the earlier element wins.
    @raise Invalid_argument on an empty list. *)

(** A rebalance decision: move [sm_victim] from bin [sm_hot] (load
    [sm_hot_load], fleet average [sm_avg]) to bin [sm_cold]. *)
type 'a skew_move = {
  sm_hot : int;
  sm_hot_load : int;
  sm_avg : int;
  sm_cold : int;
  sm_victim : 'a;
}

val skew_pick :
  skew:float ->
  (int * int) list ->
  candidates:(hot:int -> cold:int -> ('a * int) list) ->
  'a skew_move option
(** [skew_pick ~skew bins ~candidates]: the one skew step.  [bins] are
    [(id, load)] pairs; the hot bin is the first maximum and the cold
    bin the first minimum.  [None] when hot = cold, the total load is 0,
    or the hot load is at most [skew] times [total / n] (integer
    division).  Otherwise the victim is the first of
    [candidates ~hot ~cold] — [(victim, weight)] pairs in the caller's
    visiting order — with positive weight closest to half the hot-cold
    gap; [None] when there is none. *)

val every :
  Engine.t ->
  interval:Time.t ->
  stopped:(unit -> bool) ->
  (unit -> unit) ->
  unit
(** [every engine ~interval ~stopped f] spawns a process running [f]
    every [interval] until [stopped ()] holds.  It keeps the event queue
    non-empty until then. *)

(** {1 Placement} *)

val place :
  ?footprint:int -> ?requires:capability -> ?device:int -> 'st t ->
  vm:Vm.t -> int
(** Place a new VM (recording residency) and return its device;
    [device] pins it explicitly, bypassing the policy (but still
    validated against [requires]).
    @raise Invalid_argument when no compatible healthy device
    remains. *)

(** {1 Live migration} *)

val migrate_vm : 'st t -> vm_id:int -> dest:int -> int
(** Move the VM's silo onto device [dest] of this pool and move its
    call flow there; returns the bytes moved.  Refused with 0, the VM
    staying where it is, when it is already on [dest], already
    mid-migration, or when [dest] is lost ({!kill_device}) or its
    capability doesn't satisfy the VM's requirement — record/replay
    only reconstructs a silo on a healthy same-type device, so the
    move is refused rather than wedged.  A [dest] lost during the
    drain also refuses the move: the VM resumes on its source.  The
    destination resumes at the source server's cursor, the first seq it
    has not answered: calls the source answered are answered again from
    the carried reply log, and only a call the source had not answered
    (one still executing there) may execute again at the destination
    — at-least-once, the same contract as the restart/requeue path.
    Must run inside a simulation process.
    @raise Invalid_argument for an unknown VM or device. *)

val emigrate : 'st t -> vm_id:int -> into:'st t -> int option
(** The same handoff as {!migrate_vm} into {e another} pool (another
    host's, sharing this pool's engine): the destination device is
    picked by [into]'s placement policy after the drain, and the flow
    moves to [into]'s router.  [Some bytes] when the VM moved: it has
    left this pool and is resident on [into], and the caller moves any
    per-host tables keyed by the VM right after this returns, without
    suspending.  [None] — the VM resumed on its source device — when it
    is unknown here, already mid-migration, or [into] has no compatible
    healthy device.  Must run inside a simulation process.
    @raise Invalid_argument when [into] is this pool. *)

(** {1 Retirement} *)

val retire_vm : 'st t -> vm_id:int -> bool
(** Retire the VM: detach its server entry (the worker exits at its
    next wakeup, {!Server.detach_vm}),
    drop residency everywhere, detach its router conn
    ({!Router.detach_vm}).  Idempotent —
    an unknown (already retired) VM returns [false] — and validated: a
    VM with a migration between pause and flow move is refused
    ([false]); retry after the migration completes.  The caller must
    ensure the VM has no in-flight calls (its worker dies with its
    inbox). *)

val kill_device : 'st t -> device:int -> unit
(** Permanently lose the device ({!Gpu.kill}) and evacuate its
    residents, each through the placement policy after its drain (as
    {!emigrate} picks).  Only a resident this evacuation moved counts
    in {!evacuations} and the devices' evacuation tallies, and has its
    circuit breaker cleared — unless it wedged the device at death.  A
    resident already mid-migration lands where that migration takes
    it; one stranded with no healthy device left stays attached to the
    dead one.  Must run inside a simulation process. *)

(** {1 Rebalancing} *)

val rebalance_now : ?skew:float -> 'st t -> bool
(** One {!skew_pick} step over the healthy devices in id order: when
    the hottest device's load exceeds [skew] (default
    {!default_rebalance}) times the healthy average, migrate the
    resident whose load best halves the hot-cold gap onto the coldest
    device.  Candidates are visited in vm-id order, so the lowest id
    wins a tie; a hot device needs at least two residents, and VMs
    already mid-migration or unable to run on the cold device are
    skipped.  Returns [true], counting a rebalance, only when the
    victim is resident on the cold device afterwards.  Must run inside
    a simulation process. *)

val start_rebalancer : ?config:rebalance -> 'st t -> unit
(** Spawn the periodic skew monitor.  It keeps the engine's event
    queue non-empty, so call {!stop} (e.g. when the workload
    completes) or [Engine.run] will never return. *)

val stop : 'st t -> unit
(** Quiesce the skew monitor; it exits at its next tick. *)
