(* Stack assembly: deploy every virtualization technique of §2 over the
   same silos, plus the full AvA remoting stack of §3-4.

   A {!cl_host} owns the physical GPU, the hypervisor, the router and the
   API server; [add_vm] attaches one guest and returns a SimCL module the
   guest application uses exactly like the vendor library.  {!nc_host} is
   the Movidius equivalent. *)

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

(* Host-side TDR (timeout-detection-and-recovery) policy: a dispatched
   call whose handler overruns its spec resource estimate by more than
   [tp_factor] (floored at [tp_min_ns]) is declared wedged; the server
   resets the device and fails the call with [status_device_lost].  The
   floor must exceed the longest legitimate single kernel (Inception's
   8 ms layer), or healthy workloads would trip it. *)
type tdr_policy = {
  tp_factor : float;
  tp_min_ns : Ava_sim.Time.t;
  tp_poison : bool;  (** scribble surviving device memory on reset *)
}

let default_tdr = { tp_factor = 20.0; tp_min_ns = Time.ms 50; tp_poison = false }

(* The attachment techniques of the design space (§2). *)
type technique =
  | Passthrough  (** dedicated device, native driver in the guest *)
  | Full_virt  (** trap-based MMIO interposition *)
  | Ava of Transport.kind  (** AvA remoting through the router *)
  | User_rpc  (** API remoting that bypasses the hypervisor (vCUDA-style) *)

let technique_to_string = function
  | Passthrough -> "pass-through"
  | Full_virt -> "full-virtualization"
  | Ava k -> "ava/" ^ Transport.kind_to_string k
  | User_rpc -> "user-rpc"

(* --- shared assembly ------------------------------------------------------ *)

(* Strip every async annotation: the unoptimized specification of the
   §5 ablation (every call waits for its reply). *)
let sync_everything (spec : Ava_spec.Ast.api_spec) =
  {
    spec with
    Ava_spec.Ast.fns =
      List.map
        (fun f -> { f with Ava_spec.Ast.f_sync = Ava_spec.Ast.Sync })
        spec.Ava_spec.Ast.fns;
  }

let compile name spec =
  match Plan.compile spec with
  | Ok plan -> (spec, plan)
  | Error e -> failwith (name ^ " plan compilation failed: " ^ e)

(* Each plan is parsed and compiled once per process: spec and plan are
   immutable, and parsing would otherwise be nearly all of a host's
   construction. *)
let cl_plan = lazy (compile "simcl" (Ava_spec.Specs.load_simcl ()))
let cl_sync_plan =
  lazy (compile "simcl" (sync_everything (Ava_spec.Specs.load_simcl ())))
let nc_plan = lazy (compile "mvnc" (Ava_spec.Specs.load_mvnc ()))
let qa_plan = lazy (compile "qat" (Ava_spec.Specs.load_qat ()))
let st_plan = lazy (compile "simst" (Ava_spec.Specs.load_simst ()))
let load_cl_plan () = Lazy.force cl_plan
let load_nc_plan () = Lazy.force nc_plan
let load_qa_plan () = Lazy.force qa_plan
let load_st_plan () = Lazy.force st_plan

(* The server half of a TDR policy: [reset] recovers the device the
   server fronts; [wedged_by] (when the device can tell) names the
   client wedging it, so blame lands on the culprit. *)
let server_tdr ?wedged_by ~reset tdr =
  Option.map
    (fun tp ->
      {
        Server.tdr_factor = tp.tp_factor;
        tdr_min_ns = tp.tp_min_ns;
        tdr_reset = (fun ~vm_id:_ -> reset tp);
        tdr_wedged_by = wedged_by;
      })
    tdr

(* The pool's transfer closure, for every pooled silo and for moves
   within the host or out of it.  The record log and any SVA pairing
   travel in the VM's server entry; with SVA armed, resolution re-points
   at the destination GPU's DMA engine. *)
let pool_transfer live ~vm_id ~(src : _ Pool.device) ~(dst : _ Pool.device) =
  Silo.transfer
    ?dma:(Option.map Gpu.dma dst.Pool.dev_phys.Pool.ph_gpu)
    live ~vm_id ~src:src.Pool.dev_server ~dst:dst.Pool.dev_server

(* The server end of a guest attach plus the guest's stub.  [sva] arms
   resolution through the VM's IOMMU, charged to the fronted device's
   DMA engine.  The stub half of the transfer cache is armed iff the
   server store is bounded above zero, with the stub's max cacheable
   blob matching the store capacity so an oversized payload can never
   NAK forever. *)
let attach_stub ?batch_limit ?retry ?sva ?obs engine ~server ~plan ~vm_id
    ~server_end ~guest_end =
  ignore (Server.attach_vm server ~vm_id ~ep:server_end);
  Option.iter
    (fun (iommu, dma) -> Server.set_sva server ~vm_id ~iommu ~dma)
    sva;
  let cache =
    match Server.cache_capacity server with
    | 0 -> None
    | capacity -> Some (Stub.cache_for_capacity capacity)
  in
  Stub.create ?batch_limit ?retry ?cache ?sva:(Option.map fst sva) ?obs engine
    ~vm_id ~plan ~ep:guest_end

(* The AvA attach shared by every silo, over two hops.  Hop 1: guest <->
   router over the chosen transport.  Faults live here — the hop that
   crosses a ring/socket/network in a real deployment — and so does
   doorbell coalescing, on the ring's send side (the direction whose
   notify is a hypercall).  Hop 2: router <-> server over a host-internal
   queue.  Returns the guest's stub. *)
let attach_ava ?faults ?doorbell ?rate_per_s ?weight ?quota_cost
    ?quota_window ?breaker ?breaker_statuses ?backend ?batch_limit ?retry ?sva
    ?obs engine ~hv ~router ~server ~plan ~kind vm =
  let guest_end, router_guest_end =
    Transport.make kind engine ~virt:(Ava_hv.Hypervisor.virt hv)
  in
  Option.iter (fun f -> Faults.wrap f (guest_end, router_guest_end)) faults;
  (match (doorbell, kind) with
  | Some cfg, Transport.Shm_ring -> Transport.set_doorbell ~cfg guest_end
  | _ -> ());
  let router_server_end, server_end = Transport.direct engine in
  ignore
    (Router.attach_vm ?rate_per_s ?weight ?quota_cost ?quota_window ?breaker
       ?breaker_statuses ?backend router vm ~guest_side:router_guest_end
       ~server_side:router_server_end);
  attach_stub ?batch_limit ?retry ?sva ?obs engine ~server ~plan
    ~vm_id:(Ava_hv.Vm.id vm) ~server_end ~guest_end

(* Retire a guest from the whole stack: pool residency and server entry
   (with its record log), router conn, silo-specific [release], open
   obs spans.
   Idempotent — retiring an unknown or already-retired VM returns
   [false] — and validated: a VM mid-migration is refused (retry after
   the migration completes).  The caller must ensure the VM has no
   in-flight calls; its worker dies with its inbox, so the spans of
   fire-and-forget teardown calls sent just before would never close. *)
let retire ~pool ~server ~obs ~release vm_id =
  let ok =
    if Option.is_some (Pool.device_of pool ~vm_id) then
      Pool.retire_vm pool ~vm_id
    else
      (* Only a User_rpc guest has no pool residency: it bypasses
         placement, lives on device 0's server and has no router flow. *)
      match Server.vm_ctx server ~vm_id with
      | Some _ ->
          Server.detach_vm server ~vm_id;
          true
      | None -> false
  in
  if ok then begin
    release ();
    Option.iter (fun o -> Obs.forget_vm o ~vm:vm_id) obs
  end;
  ok

(* --- SimCL hosts --------------------------------------------------------- *)

type cl_host = {
  engine : Engine.t;
  gpu : Gpu.t;  (** device 0's GPU *)
  hv : Ava_hv.Hypervisor.t;
  plan : Plan.t;
  spec : Ava_spec.Ast.api_spec;
  router : Router.t;
  server : Cl_silo.state Server.t;  (** device 0's server *)
  swaps : Swap.t array;  (** one per pool device; empty when swap is off *)
  obs : Obs.t option;
  cl_pool : Cl_silo.state Pool.t;
  pool : Cl_silo.state Pool.t option;
      (** always [Some cl_pool]; read only by hostbench/work.ml *)
  sva : bool;  (** zero-copy data path: per-VM IOMMUs + mapped refs *)
  doorbell : Transport.doorbell_cfg option;
      (** doorbell coalescing on each guest's shm-ring send side *)
  iommus : (int, Iommu.t) Hashtbl.t;  (** per-VM IOMMU when [sva] *)
}

type cl_guest = {
  g_vm : Ava_hv.Vm.t;
  g_api : (module Ava_simcl.Api.S);
  g_stub : Stub.t option;  (** None for pass-through / full-virt guests *)
  g_technique : technique;
}

(* Every host is a device pool of [devices] GPUs (default 1), each
   fronted by its own API server, router dispatch lane and, with
   [swap_capacity], its own swap manager over its own DMA engine.  The
   knobs are documented in host.mli. *)
let create_cl_host ?(virt = Timing.default_virt) ?swap_capacity
    ?(swap_page_granularity = false) ?(sync_only = false) ?(transfer_cache = 0)
    ?(sva = false) ?doorbell ?devfaults ?tdr ?obs
    ?(devices = 1) ?(placement = Pool.Round_robin) ?rebalance ?vm_id_base
    engine =
  if devices < 1 then invalid_arg "create_cl_host: devices must be >= 1";
  let gpus =
    Array.init devices (fun _ ->
        Gpu.create ~timing:Timing.gtx1080 ?devfault:devfaults engine)
  in
  let hv = Ava_hv.Hypervisor.create ~virt ?vm_id_base () in
  let spec, plan = Lazy.force (if sync_only then cl_sync_plan else cl_plan) in
  let swap_on gpu capacity =
    let dma_move ~key:_ ~bytes =
      if swap_page_granularity then begin
        (* One descriptor + transfer per page: the per-operation setup
           cost is paid (size / 4K) times. *)
        let pages = (bytes + 4095) / 4096 in
        for _ = 1 to pages do
          Dma.transfer (Gpu.dma gpu) ~bytes:4096
        done
      end
      else Dma.transfer (Gpu.dma gpu) ~bytes
    in
    Swap.create ~capacity ~evict:dma_move ~restore:dma_move
  in
  let swaps =
    match swap_capacity with
    | None -> [||]
    | Some capacity -> Array.map (fun gpu -> swap_on gpu capacity) gpus
  in
  (* One API server per device.  Its watchdog resets (and blames through)
     its own board: wedged work is failed, queued survivors keep
     draining (Windows-TDR semantics), so innocents see only a blip. *)
  let make_server i =
    let gpu = gpus.(i) in
    let server =
      Server.create ~cache_capacity:transfer_cache
        ?tdr:
          (server_tdr tdr
             ~wedged_by:(fun () -> Gpu.wedged_by gpu)
             ~reset:(fun tp ->
               Gpu.reset
                 ~policy:(if tp.tp_poison then `Poison else `Preserve)
                 gpu))
        ?obs ~device_id:i engine ~plan
        ~make_state:
          (Cl_silo.make_state
             ?swap:(if Array.length swaps = 0 then None else Some swaps.(i))
             (Ava_simcl.Kdriver.create gpu))
    in
    Cl_silo.register server;
    server
  in
  let servers = Array.init devices make_server in
  let router = Router.create ?obs engine ~virt ~plan in
  let iommus = Hashtbl.create 8 in
  let transfer ~vm_id ~src ~dst =
    let bytes = pool_transfer Cl_silo.live ~vm_id ~src ~dst in
    (* The VM's swap entries leave the source device with it. *)
    if Array.length swaps > 0 then
      Cl_silo.forget_swap swaps.(src.Pool.dev_id) ~vm_id;
    bytes
  in
  let pool =
    Pool.create engine ~router ~placement ~transfer
      (Array.to_list
         (Array.mapi (fun i gpu -> (Pool.phys_of_gpu gpu, servers.(i))) gpus))
  in
  Option.iter (fun config -> Pool.start_rebalancer ~config pool) rebalance;
  { engine; gpu = gpus.(0); hv; plan; spec; router; server = servers.(0);
    swaps; obs; cl_pool = pool; pool = Some pool; sva;
    doorbell; iommus }

(* Reply statuses that count against a SimCL VM's error budget: the
   server's device-lost verdict (TDR fired mid-call) and the CL-level
   CL_DEVICE_NOT_AVAILABLE a later clFinish reports for a kernel the
   reset killed. *)
let cl_fault_statuses =
  [
    Server.status_device_lost;
    Ava_simcl.Types.error_to_code Ava_simcl.Types.Device_not_available;
  ]

(* Attach one guest VM with the chosen technique and policies.
   [batching] enables rCUDA-style API batching in the guest stub.
   [faults] installs fault hooks on the guest-facing link (the hop that
   crosses a real transport); [retry] arms the stub's retransmission
   watchdog — deploy them together for a recoverable lossy stack. *)
let add_cl_vm ?(technique = Ava Transport.Shm_ring) ?(batching = false)
    ?retry ?faults ?rate_per_s ?weight ?quota_cost ?quota_window ?breaker
    ?footprint ?device t ~name =
  let batch_limit = if batching then 16 else 1 in
  let vm = Ava_hv.Hypervisor.create_vm t.hv ~name in
  let vm_id = Ava_hv.Vm.id vm in
  (* Dedicated-device techniques pin a pool device ([device], default
     0) and run the native driver in the guest: nothing to record, no
     IOMMU. *)
  let native attach =
    let kd =
      attach ~vm t.hv (Pool.gpu t.cl_pool (Option.value device ~default:0))
    in
    let api, _ = Ava_simcl.Native.create kd in
    { g_vm = vm; g_api = api; g_stub = None; g_technique = technique }
  in
  (* Remoted guests are recorded for migration (by their server entry)
     and, with SVA, get one IOMMU (device address space) each.  The stub
     pins through it; whichever server currently fronts the VM's device
     resolves through it.  [attach] builds the stub given the SVA
     pairing for a device. *)
  let remoted attach =
    let iommu =
      if t.sva then begin
        let i = Iommu.create () in
        Hashtbl.replace t.iommus vm_id i;
        Some i
      end
      else None
    in
    let stub =
      attach (fun d ->
          Option.map (fun i -> (i, Gpu.dma (Pool.gpu t.cl_pool d))) iommu)
    in
    let api = Cl_silo.create stub in
    { g_vm = vm; g_api = api; g_stub = Some stub; g_technique = technique }
  in
  match technique with
  | Passthrough -> native (fun ~vm -> Ava_hv.Hypervisor.attach_passthrough ~vm)
  | Full_virt -> native (fun ~vm -> Ava_hv.Hypervisor.attach_fullvirt ~vm)
  | User_rpc ->
      (* Guest connects straight to device 0's API server: no router, no
         hypervisor interposition and no placement — the stack it
         bypasses is exactly the one that steers. *)
      remoted (fun sva_on ->
          let guest_end, server_end =
            Transport.user_rpc t.engine ~virt:(Ava_hv.Hypervisor.virt t.hv)
          in
          Option.iter (fun f -> Faults.wrap f (guest_end, server_end)) faults;
          attach_stub ~batch_limit ?retry ?sva:(sva_on 0) ?obs:t.obs t.engine
            ~server:t.server ~plan:t.plan ~vm_id ~server_end ~guest_end)
  | Ava kind ->
      (* The placement policy (or an explicit [device] pin) picks the
         backend; its server executes this VM's calls. *)
      remoted (fun sva_on ->
          let backend = Pool.place ?footprint ?device t.cl_pool ~vm in
          attach_ava ?faults ?doorbell:t.doorbell ?rate_per_s ?weight
            ?quota_cost ?quota_window ?breaker
            ~breaker_statuses:cl_fault_statuses ~backend ~batch_limit ?retry
            ?sva:(sva_on backend) ?obs:t.obs t.engine ~hv:t.hv
            ~router:t.router ~server:(Pool.server t.cl_pool backend)
            ~plan:t.plan ~kind vm)

(* A bare-metal SimCL stack: the native baseline every relative number in
   the evaluation is normalized to. *)
let native_cl engine =
  let gpu = Gpu.create ~timing:Timing.gtx1080 engine in
  let kd = Ava_simcl.Kdriver.create gpu in
  let api, _ = Ava_simcl.Native.create kd in
  (api, gpu)

(* The record log lives in the VM's entry on whichever server fronts it:
   its pool device's, or device 0's for a [User_rpc] guest. *)
let recorder t ~vm_id =
  let server =
    match Pool.device_of t.cl_pool ~vm_id with
    | Some d -> Pool.server t.cl_pool d
    | None -> t.server
  in
  Server.recorder server ~vm_id

(* As [retire], plus the VM's swap entries and IOMMU pins.  Must run
   inside a simulation process (the IOMMU teardown charges a
   shootdown). *)
let retire_cl_vm t ~vm_id =
  retire ~pool:t.cl_pool ~server:t.server ~obs:t.obs vm_id
    ~release:(fun () ->
      Array.iter (fun sw -> Cl_silo.forget_swap sw ~vm_id) t.swaps;
      match Hashtbl.find_opt t.iommus vm_id with
      | Some iommu ->
          Iommu.release_all iommu;
          Hashtbl.remove t.iommus vm_id
      | None -> ())

(* --- MVNC hosts ----------------------------------------------------------- *)

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

let create_nc_host ?(transfer_cache = 0) ?devfaults ?obs engine =
  let virt = Timing.default_virt in
  let dev = Ncs.create ~timing:Timing.movidius ?devfault:devfaults engine in
  let hv = Ava_hv.Hypervisor.create ~virt () in
  let _spec, plan = load_nc_plan () in
  let server =
    Server.create ~cache_capacity:transfer_cache ?obs engine ~plan
      ~make_state:(Nc_silo.make_state dev)
  in
  Nc_silo.register server;
  let router = Router.create ?obs engine ~virt ~plan in
  {
    nc_engine = engine;
    nc_dev = dev;
    nc_hv = hv;
    nc_plan = plan;
    nc_router = router;
    nc_server = server;
    nc_obs = obs;
  }

let add_nc_vm t ~name =
  let vm = Ava_hv.Hypervisor.create_vm t.nc_hv ~name in
  let stub =
    attach_ava ?obs:t.nc_obs t.nc_engine ~hv:t.nc_hv ~router:t.nc_router
      ~server:t.nc_server ~plan:t.nc_plan ~kind:Transport.Shm_ring vm
  in
  let api = Nc_silo.create stub in
  { ng_vm = vm; ng_api = api; ng_stub = Some stub }

let native_nc engine =
  let dev = Ncs.create ~timing:Timing.movidius engine in
  let api, _ = Ava_simnc.Native.create dev in
  (api, dev)

(* --- SimQA hosts ----------------------------------------------------------- *)

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

let create_qa_host ?obs engine =
  let virt = Timing.default_virt in
  let dev = Ava_simqa.Device.create ~timing:Ava_simqa.Device.dh895xcc engine in
  let hv = Ava_hv.Hypervisor.create ~virt () in
  let _spec, plan = load_qa_plan () in
  let server =
    Server.create ?obs engine ~plan ~make_state:(Qa_silo.make_state dev)
  in
  Qa_silo.register server;
  let router = Router.create ?obs engine ~virt ~plan in
  {
    qa_engine = engine;
    qa_dev = dev;
    qa_hv = hv;
    qa_plan = plan;
    qa_router = router;
    qa_server = server;
    qa_obs = obs;
  }

let add_qa_vm t ~name =
  let vm = Ava_hv.Hypervisor.create_vm t.qa_hv ~name in
  let stub =
    attach_ava ?obs:t.qa_obs t.qa_engine ~hv:t.qa_hv ~router:t.qa_router
      ~server:t.qa_server ~plan:t.qa_plan ~kind:Transport.Shm_ring vm
  in
  let api = Qa_silo.create stub in
  { qg_vm = vm; qg_api = api; qg_stub = Some stub }

let native_qa engine =
  let dev = Ava_simqa.Device.create ~timing:Ava_simqa.Device.dh895xcc engine in
  let api, _ = Ava_simqa.Native.create dev in
  (api, dev)

(* --- SimST hosts ----------------------------------------------------------- *)

type st_host = {
  st_engine : Engine.t;
  st_hv : Ava_hv.Hypervisor.t;
  st_plan : Plan.t;
  st_spec : Ava_spec.Ast.api_spec;
  st_router : Router.t;
  st_server : St_silo.state Server.t;  (** device 0's server *)
  st_devs : Ava_simst.Device.t array;  (** one per pool device *)
  st_obs : Obs.t option;
  st_pool : St_silo.state Pool.t;
}

type st_guest = {
  sg_vm : Ava_hv.Vm.t;
  sg_api : (module Ava_simst.Api.S);
  sg_stub : Stub.t option;
}

(* Heterogeneous fleets: the capability tag picks the device model.  The
   SimST API runs on all three — what differs is the timing profile, so
   capability-aware placement is measurable, not cosmetic. *)
let st_timing_of = function
  | Pool.Cap_stream -> Ava_simst.Device.sm_stream
  | Pool.Cap_gpu -> Ava_simst.Device.gpu_class
  | Pool.Cap_npu -> Ava_simst.Device.npu_class

let st_phys cap dev =
  {
    Pool.ph_cap = cap;
    ph_busy_ns = (fun () -> Ava_simst.Device.busy_ns dev);
    ph_kernels = (fun () -> Ava_simst.Device.kernels_executed dev);
    ph_capacity = Ava_simst.Device.capacity dev;
    ph_wedged_by = (fun () -> None);
    ph_kill = (fun () -> Ava_simst.Device.kill dev);
    ph_gpu = None;
  }

(* [fleet] is the capability tag per pool device (default one
   [Cap_stream] device); each class runs its own timing preset — that
   contrast is the point of a mixed fleet. *)
let create_st_host ?obs ?(fleet = [ Pool.Cap_stream ])
    ?(placement = Pool.Round_robin) ?rebalance engine =
  if fleet = [] then invalid_arg "create_st_host: fleet must be non-empty";
  let virt = Timing.default_virt in
  let hv = Ava_hv.Hypervisor.create ~virt () in
  let spec, plan = load_st_plan () in
  let caps = Array.of_list fleet in
  let devs =
    Array.map
      (fun cap ->
        Ava_simst.Device.create ~timing:(st_timing_of cap) engine)
      caps
  in
  let make_server i =
    let server =
      Server.create ?obs ~device_id:i engine ~plan
        ~make_state:(St_silo.make_state devs.(i))
    in
    St_silo.register server;
    server
  in
  let router = Router.create ?obs engine ~virt ~plan in
  let servers = Array.init (Array.length devs) make_server in
  let pool =
    Pool.create engine ~router ~placement
      ~transfer:(pool_transfer St_silo.live)
      (Array.to_list
         (Array.mapi (fun i cap -> (st_phys cap devs.(i), servers.(i))) caps))
  in
  Option.iter (fun config -> Pool.start_rebalancer ~config pool) rebalance;
  {
    st_engine = engine;
    st_hv = hv;
    st_plan = plan;
    st_spec = spec;
    st_router = router;
    st_server = servers.(0);
    st_devs = devs;
    st_obs = obs;
    st_pool = pool;
  }

(* [requires] declares the VM's capability requirement: placement only
   considers matching devices and migration refuses cross-capability
   destinations; portable VMs ([None]) go wherever the policy points. *)
let add_st_vm ?requires ?device t ~name =
  let vm = Ava_hv.Hypervisor.create_vm t.st_hv ~name in
  let backend = Pool.place ?requires ?device t.st_pool ~vm in
  let stub =
    attach_ava ~backend ?obs:t.st_obs t.st_engine ~hv:t.st_hv
      ~router:t.st_router ~server:(Pool.server t.st_pool backend)
      ~plan:t.st_plan ~kind:Transport.Shm_ring vm
  in
  let api = St_silo.create stub in
  { sg_vm = vm; sg_api = api; sg_stub = Some stub }

let retire_st_vm t ~vm_id =
  retire ~pool:t.st_pool ~server:t.st_server ~obs:t.st_obs ~release:ignore
    vm_id

let native_st engine =
  let dev = Ava_simst.Device.create ~timing:Ava_simst.Device.sm_stream engine in
  let api, _ = Ava_simst.Native.create dev in
  (api, dev)
