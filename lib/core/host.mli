(** Stack assembly: deploy every virtualization technique of §2 over the
    same silos, plus the full AvA remoting stack of §3-4.

    A {!cl_host} owns a pool of physical GPUs (one by default), the
    hypervisor, the router and one API server per GPU; {!add_cl_vm}
    attaches one guest and returns a SimCL module the guest application
    uses exactly like the vendor library.
    {!nc_host} and {!qa_host} are the Movidius and QuickAssist
    equivalents. *)

module Transport = Ava_transport.Transport
module Faults = Ava_transport.Faults
module Plan = Ava_codegen.Plan
module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Router = Ava_remoting.Router
module Migrate = Ava_remoting.Migrate
module Swap = Ava_remoting.Swap
module Obs = Ava_obs.Obs
module Pool = Ava_pool.Pool

open Ava_sim
open Ava_device

(** Host-side TDR (timeout-detection-and-recovery) policy: a dispatched
    call whose handler overruns its spec resource estimate by more than
    [tp_factor] (floored at [tp_min_ns]) is declared wedged; the server
    resets the device and fails the call with
    {!Server.status_device_lost}.  Keep [tp_min_ns] above the longest
    legitimate single kernel or healthy workloads trip it. *)
type tdr_policy = {
  tp_factor : float;
  tp_min_ns : Time.t;
  tp_poison : bool;  (** scribble surviving device memory on reset *)
}

val default_tdr : tdr_policy
(** 20x overrun, 50 ms floor, preserve memory. *)

(** The attachment techniques of the design space (§2). *)
type technique =
  | Passthrough  (** dedicated device, native driver in the guest *)
  | Full_virt  (** trap-based MMIO interposition *)
  | Ava of Transport.kind  (** AvA remoting through the router *)
  | User_rpc  (** API remoting that bypasses the hypervisor (vCUDA-style) *)

val technique_to_string : technique -> string

(** {1 SimCL hosts} *)

type cl_host = {
  engine : Engine.t;
  gpu : Gpu.t;  (** device 0's GPU *)
  hv : Ava_hv.Hypervisor.t;
  plan : Plan.t;
  spec : Ava_spec.Ast.api_spec;
  router : Router.t;
  server : Cl_silo.state Server.t;  (** device 0's server *)
  swaps : Swap.t array;
      (** one swap manager per pool device; empty when swap is off *)
  obs : Obs.t option;
      (** latency-attribution registry (armed with [~obs]) *)
  cl_pool : Cl_silo.state Pool.t;  (** the device pool *)
  pool : Cl_silo.state Pool.t option;
      (** always [Some cl_pool].  Its only reader is the host benchmark
          (hostbench/work.ml); the next change to the benchmark deletes
          it.  Use [cl_pool]. *)
  sva : bool;  (** shared virtual addressing armed for remoted guests *)
  doorbell : Transport.doorbell_cfg option;
      (** doorbell coalescing config for shm-ring guests; [None] = eager *)
  iommus : (int, Iommu.t) Hashtbl.t;
      (** per-VM device address spaces, for retirement and read-outs;
          the server entry fronting each VM holds its SVA pairing *)
}

type cl_guest = {
  g_vm : Ava_hv.Vm.t;
  g_api : (module Ava_simcl.Api.S);
  g_stub : Stub.t option;  (** [None] for pass-through / full-virt guests *)
  g_technique : technique;
}

val load_cl_plan : unit -> Ava_spec.Ast.api_spec * Plan.t
(** The embedded spec and its compiled plan.  Each silo's pair is built
    once per process and shared, as both are immutable; so are
    [load_nc_plan], [load_qa_plan] and [load_st_plan]'s, and
    {!create_cl_host}'s [sync_only] pair. *)

val create_cl_host :
  ?virt:Timing.virt ->
  ?swap_capacity:int ->
  ?swap_page_granularity:bool ->
  ?sync_only:bool ->
  ?transfer_cache:int ->
  ?sva:bool ->
  ?doorbell:Transport.doorbell_cfg ->
  ?devfaults:Devfault.t ->
  ?tdr:tdr_policy ->
  ?obs:Obs.t ->
  ?devices:int ->
  ?placement:Pool.placement ->
  ?rebalance:Pool.rebalance ->
  ?vm_id_base:int ->
  Engine.t ->
  cl_host
(** [swap_capacity] enables swapping: each pool device gets its own
    swap manager with this device-memory budget in bytes, moving data
    over that device's DMA engine; [swap_page_granularity] switches the
    data movement to one transfer per 4 KiB page (the page/chunk schemes
    the paper argues against).  [sync_only] deploys the unoptimized
    no-async spec.  [transfer_cache] bounds the server's per-VM content
    store in bytes and arms the matching stub-side digest cache on every
    remoted guest (default 0: cache off, wire traffic byte-identical to
    the pre-cache stack).  [devfaults] arms seeded device-fault injection on the GPU;
    [tdr] arms the server's hang watchdog with device reset — both off
    by default, leaving the stack bit-identical to the fault-free
    build.  [obs] arms per-call latency attribution across stub, router
    and server; the registry never advances virtual time, so an armed
    run's timings are bit-identical to a disarmed run's.

    [sva] arms shared virtual addressing on every remoted guest: large
    argument blobs are pinned once into a per-VM device address space
    ({!Iommu}) and cross the wire as fixed-size {!Wire.Mapped_ref}
    frames; the server resolves them through the IOMMU with one
    scatter-gather descriptor per call instead of per-buffer copies.
    Off by default — the wire traffic and virtual-time behaviour are
    then bit-identical to the pre-SVA stack.  [doorbell] arms doorbell
    coalescing on every shm-ring guest transport: up to [db_batch] ring
    slots ride behind one notify, flushed by a sync kick or the
    [db_horizon_ns] timer, attributed to the [doorbell] obs phase.
    [None] (default) keeps eager per-message notifies.

    Every host is a device pool: [devices] simulated GPUs (default 1),
    each fronted by its own API server and router dispatch lane, with
    remoted VMs placed onto them by [placement] (default
    {!Pool.Round_robin}) and an optional periodic skew monitor
    ([rebalance] — stop it with [Pool.stop] or [Engine.run] never
    returns).  A one-device pool is bit-identical in virtual time to the
    pre-pool single-GPU stack.

    [vm_id_base] seeds the hypervisor's VM-id counter (default 1); a
    cluster gives each host a disjoint base so VM ids stay globally
    unique across hosts. *)

val add_cl_vm :
  ?technique:technique ->
  ?batching:bool ->
  ?retry:Stub.retry ->
  ?faults:Faults.t ->
  ?rate_per_s:float ->
  ?weight:float ->
  ?quota_cost:float ->
  ?quota_window:Time.t ->
  ?breaker:Ava_remoting.Policy.Breaker.config ->
  ?footprint:int ->
  ?device:int ->
  cl_host ->
  name:string ->
  cl_guest
(** Attach one guest VM (default technique: AvA over the shm ring) with
    optional router policies.  [batching] enables rCUDA-style API
    batching in the guest stub.  [faults] installs fault injection on
    the guest-facing transport hop; [retry] arms the stub's
    retransmission watchdog — deploy them together for a recoverable
    lossy stack (both absent by default: the stack is then bit-identical
    to the fault-free build).  [breaker] arms the router's per-VM
    circuit breaker, fed by device-lost and CL_DEVICE_NOT_AVAILABLE
    replies: a faulting VM is quarantined
    ({!Server.status_vm_quarantined}) without perturbing its
    neighbours.

    [footprint] declares the VM's device-memory appetite in bytes (the
    bin-packing policy's input) and [device] pins a pool device
    outright, bypassing the placement policy — for AvA guests via
    {!Pool.place}, and for pass-through / full-virt guests by
    dedicating that pool device's GPU (recorded with
    {!Ava_hv.Hypervisor.attachment}).  [User_rpc] guests bypass
    placement entirely and run on device 0's server.  Only remoted
    guests ([Ava _] and [User_rpc]) get a migration record log (kept
    by their server entry) and, with [sva], an IOMMU. *)

val native_cl : Engine.t -> (module Ava_simcl.Api.S) * Gpu.t
(** A bare-metal SimCL stack: the baseline every relative number is
    normalized to. *)

val recorder : cl_host -> vm_id:int -> Migrate.t option
(** The VM's migration record log, read from the server entry fronting
    it ({!Server.recorder}); [None] for a dedicated-device or retired
    guest. *)

val retire_cl_vm : cl_host -> vm_id:int -> bool
(** Retire a guest from the whole stack: pool residency (or a
    [User_rpc] guest's server entry, record log included), router
    conn ({!Router.detach_vm}), swap entries, IOMMU pins
    ({!Iommu.release_all}), open obs spans ({!Obs.forget_vm}).
    Idempotent ([false] for an unknown or already-retired VM) and
    validated (a VM mid-migration is refused; retry once the
    migration completes).  The caller must ensure the VM has no
    in-flight calls — its worker dies with its inbox.  Must run inside
    a simulation process. *)

(** {1 MVNC hosts} *)

type nc_host = {
  nc_engine : Engine.t;
  nc_dev : Ncs.t;
  nc_hv : Ava_hv.Hypervisor.t;
  nc_plan : Plan.t;
  nc_router : Router.t;
  nc_server : Nc_silo.state Server.t;
  nc_obs : Obs.t option;
}

type nc_guest = {
  ng_vm : Ava_hv.Vm.t;
  ng_api : (module Ava_simnc.Api.S);
  ng_stub : Stub.t option;
}

val load_nc_plan : unit -> Ava_spec.Ast.api_spec * Plan.t

val create_nc_host :
  ?transfer_cache:int ->
  ?devfaults:Devfault.t ->
  ?obs:Obs.t ->
  Engine.t ->
  nc_host
(** [transfer_cache], [devfaults] and [obs] as in {!create_cl_host}. *)

val add_nc_vm : nc_host -> name:string -> nc_guest

val native_nc : Engine.t -> (module Ava_simnc.Api.S) * Ncs.t

(** {1 SimQA hosts (the §5 future-work API)} *)

type qa_host = {
  qa_engine : Engine.t;
  qa_dev : Ava_simqa.Device.t;
  qa_hv : Ava_hv.Hypervisor.t;
  qa_plan : Plan.t;
  qa_router : Router.t;
  qa_server : Qa_silo.state Server.t;
  qa_obs : Obs.t option;
}

type qa_guest = {
  qg_vm : Ava_hv.Vm.t;
  qg_api : (module Ava_simqa.Api.S);
  qg_stub : Stub.t option;
}

val load_qa_plan : unit -> Ava_spec.Ast.api_spec * Plan.t

val create_qa_host :
  ?obs:Obs.t ->
  Engine.t ->
  qa_host
(** [obs] as in {!create_cl_host}. *)

val add_qa_vm : qa_host -> name:string -> qa_guest

val native_qa : Engine.t -> (module Ava_simqa.Api.S) * Ava_simqa.Device.t

(** {1 SimST hosts (the stream-accelerator silo)}

    The fourth API virtualized by this reproduction: a CUDA-style
    stream accelerator whose calls are mostly asynchronous enqueues —
    the API shape AvA's ordering and completion annotations exist for.
    A SimST host may front a {e heterogeneous} fleet: each pool device
    carries a {!Pool.capability} tag picking its timing class, VMs may
    require one, and placement / evacuation / rebalancing respect it. *)

type st_host = {
  st_engine : Engine.t;
  st_hv : Ava_hv.Hypervisor.t;
  st_plan : Plan.t;
  st_spec : Ava_spec.Ast.api_spec;
  st_router : Router.t;
  st_server : St_silo.state Server.t;  (** device 0's server *)
  st_devs : Ava_simst.Device.t array;  (** one per pool device *)
  st_obs : Obs.t option;
  st_pool : St_silo.state Pool.t;  (** the device pool *)
}

type st_guest = {
  sg_vm : Ava_hv.Vm.t;
  sg_api : (module Ava_simst.Api.S);
  sg_stub : Stub.t option;
}

val load_st_plan : unit -> Ava_spec.Ast.api_spec * Plan.t

val create_st_host :
  ?obs:Obs.t ->
  ?fleet:Pool.capability list ->
  ?placement:Pool.placement ->
  ?rebalance:Pool.rebalance ->
  Engine.t ->
  st_host
(** [fleet] tags one pool device per element (default a single
    [Cap_stream] device); [placement] (default {!Pool.Round_robin}) and
    [rebalance] as in {!create_cl_host}.  Each capability class runs
    its own timing preset (balanced for [Cap_stream]).  [obs] as in
    {!create_cl_host}. *)

val add_st_vm :
  ?requires:Pool.capability ->
  ?device:int ->
  st_host ->
  name:string ->
  st_guest
(** [requires] pins placement (and migration) to devices of that
    capability; omitted means portable.  [device] pins a pool device
    explicitly (validated against [requires]). *)

val retire_st_vm : st_host -> vm_id:int -> bool
(** As {!retire_cl_vm}, for the stream silo. *)

val native_st : Engine.t -> (module Ava_simst.Api.S) * Ava_simst.Device.t
