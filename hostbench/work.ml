(* The measured operations of the three workloads, on the remoted AvA
   stacks and on the native silos, plus the counter snapshots the traced
   run reads.  Every number comes from timing the benchmark's own calls
   into a layer's public functions, or from that layer's public
   counters. *)

open Ava_sim
module Host = Ava_core.Host
module Transport = Ava_transport.Transport
module Server = Ava_remoting.Server
module Stub = Ava_remoting.Stub
module Router = Ava_remoting.Router
module Vm = Ava_hv.Vm
module Cluster = Ava_cluster.Cluster
module Tracegen = Ava_cluster.Tracegen
module Rodinia = Ava_workloads.Rodinia
module Inception = Ava_workloads.Inception
module Gpu = Ava_device.Gpu

(* One measured [Engine.run] over a list of operations. *)
type pass = {
  cpu : float;  (** host CPU seconds *)
  wall : float;
  alloc : float;  (** bytes allocated *)
  events : int;
  virt : Time.t list;  (** virtual duration of each operation, in order *)
  failed : int;
  payload : int;  (** application payload bytes through the API *)
}

(* Time [f] (host construction) as set-up, in CPU seconds. *)
let setup f =
  let c0 = Meter.cpu () in
  let r = Meter.span "setup" f in
  (r, Meter.cpu () -. c0)

(* Run [ops] in order in one simulation process; an operation that
   returns [false] (failed output check) or raises (API error) counts as
   failed and the rest still run.  [ctxs] are the API wrappers whose
   call spans nest under this run's span. *)
let drive ?(ctxs = []) e ops =
  let n = List.length ops in
  let virt = Array.make n 0 and failed = ref 0 in
  Engine.spawn e ~name:"hostbench" (fun () ->
      List.iteri
        (fun i op ->
          let t = Engine.now e in
          (match op () with
          | true -> ()
          | false ->
              Printf.eprintf "operation %d: output check failed\n%!" i;
              incr failed
          | exception ex ->
              Printf.eprintf "operation %d: %s\n%!" i (Printexc.to_string ex);
              incr failed);
          virt.(i) <- Engine.now e - t)
        ops);
  Gc.full_major ();
  let p0 = !Meter.payload and ev0 = Engine.events_executed e in
  let a0 = Meter.allocated () and w0 = Meter.wall () and c0 = Meter.cpu () in
  let sp = Meter.open_span "engine.run" in
  List.iter (fun (c : Apis.ctx) -> c.parent := sp.Meter.id) ctxs;
  Engine.run e;
  Meter.close_span sp;
  let cpu = Meter.cpu () -. c0 and wall = Meter.wall () -. w0 in
  {
    cpu;
    wall;
    alloc = Meter.allocated () -. a0;
    events = Engine.events_executed e - ev0;
    virt = Array.to_list virt;
    failed = !failed;
    payload = !Meter.payload - p0;
  }

(* Mean over operations of remoted / native virtual time (Fig. 5). *)
let rel_mean remoted native =
  Meter.mean
    (List.map2 (fun r n -> Meter.ratio (Meter.fi r) (Meter.fi n)) remoted native)

(* -------------------------------------------------- counter snapshot -- *)

(* Public counters of every layer, summed over a workload's stacks. *)
type snap = {
  stub_sync : int;
  stub_async : int;
  stub_marshalled : int;
  stub_refs : int;
  stub_nak_resends : int;
  stub_sva_maps : int;
  srv_executed : int;
  srv_naks : int;
  srv_hits : int;
  srv_misses : int;
  srv_insertions : int;
  srv_saved : int;
  srv_evictions : int;
  srv_sva : int;
  srv_unexpected : int;
  rt_forwarded : int;
  rt_rejected : int;
  rt_requeued : int;
  rt_flows : int;  (** VMs ever attached, summed over routers *)
  wire_bytes : int;  (** bytes through the routers, both directions *)
  gpu_busy_ns : int;
  gpu_span_ns : int;  (** devices x virtual makespan *)
  gpu_kernels : int;
  iommu_maps : int;
  dma_bytes : int;
}

let zero =
  {
    stub_sync = 0; stub_async = 0; stub_marshalled = 0; stub_refs = 0;
    stub_nak_resends = 0; stub_sva_maps = 0; srv_executed = 0; srv_naks = 0;
    srv_hits = 0; srv_misses = 0; srv_insertions = 0; srv_saved = 0; srv_evictions = 0;
    srv_sva = 0; srv_unexpected = 0; rt_forwarded = 0; rt_rejected = 0;
    rt_requeued = 0; rt_flows = 0; wire_bytes = 0; gpu_busy_ns = 0;
    gpu_span_ns = 0; gpu_kernels = 0; iommu_maps = 0; dma_bytes = 0;
  }

let add a b =
  {
    stub_sync = a.stub_sync + b.stub_sync;
    stub_async = a.stub_async + b.stub_async;
    stub_marshalled = a.stub_marshalled + b.stub_marshalled;
    stub_refs = a.stub_refs + b.stub_refs;
    stub_nak_resends = a.stub_nak_resends + b.stub_nak_resends;
    stub_sva_maps = a.stub_sva_maps + b.stub_sva_maps;
    srv_executed = a.srv_executed + b.srv_executed;
    srv_naks = a.srv_naks + b.srv_naks;
    srv_hits = a.srv_hits + b.srv_hits;
    srv_misses = a.srv_misses + b.srv_misses;
    srv_insertions = a.srv_insertions + b.srv_insertions;
    srv_saved = a.srv_saved + b.srv_saved;
    srv_evictions = a.srv_evictions + b.srv_evictions;
    srv_sva = a.srv_sva + b.srv_sva;
    srv_unexpected = a.srv_unexpected + b.srv_unexpected;
    rt_forwarded = a.rt_forwarded + b.rt_forwarded;
    rt_rejected = a.rt_rejected + b.rt_rejected;
    rt_requeued = a.rt_requeued + b.rt_requeued;
    rt_flows = a.rt_flows + b.rt_flows;
    wire_bytes = a.wire_bytes + b.wire_bytes;
    gpu_busy_ns = a.gpu_busy_ns + b.gpu_busy_ns;
    gpu_span_ns = a.gpu_span_ns + b.gpu_span_ns;
    gpu_kernels = a.gpu_kernels + b.gpu_kernels;
    iommu_maps = a.iommu_maps + b.iommu_maps;
    dma_bytes = a.dma_bytes + b.dma_bytes;
  }

let stub_snap = function
  | None -> zero
  | Some s ->
      {
        zero with
        stub_sync = Stub.sync_calls s;
        stub_async = Stub.async_calls s;
        stub_marshalled = Stub.marshalled_bytes s;
        stub_refs = Stub.cache_refs s;
        stub_nak_resends = Stub.cache_nak_resends s;
        stub_sva_maps = Stub.sva_maps s;
      }

let server_snap srv =
  let cs = Server.cache_totals srv in
  {
    zero with
    srv_executed = Server.executed srv;
    srv_naks = Server.naks_sent srv;
    srv_hits = cs.Server.cs_hits;
    srv_misses = cs.Server.cs_misses;
    srv_insertions = cs.Server.cs_insertions;
    srv_saved = cs.Server.cs_saved_bytes;
    srv_evictions = cs.Server.cs_evictions;
    srv_sva = Server.sva_resolutions srv;
    srv_unexpected = Server.unexpected_exns srv;
  }

let router_snap rt hv =
  let vms = Ava_hv.Hypervisor.vms hv in
  {
    zero with
    rt_forwarded = Router.forwarded rt;
    rt_rejected = Router.rejected rt;
    rt_requeued = Router.requeued rt;
    rt_flows = List.length vms;
    wire_bytes = List.fold_left (fun acc v -> acc + Vm.bytes_transferred v) 0 vms;
  }

let gpu_snap ~makespan gpus =
  List.fold_left
    (fun acc g ->
      {
        acc with
        gpu_busy_ns = acc.gpu_busy_ns + Gpu.busy_ns g;
        gpu_span_ns = acc.gpu_span_ns + makespan;
        gpu_kernels = acc.gpu_kernels + Gpu.kernels_executed g;
        dma_bytes = acc.dma_bytes + Ava_device.Dma.bytes_moved (Gpu.dma g);
      })
    zero gpus

let cl_host_snap (h : Host.cl_host) ~makespan =
  let servers, gpus =
    match h.Host.pool with
    | None -> ([ h.Host.server ], [ h.Host.gpu ])
    | Some p ->
        let n = Host.Pool.n_devices p in
        ( List.init n (Host.Pool.server p),
          List.init n (Host.Pool.gpu p) )
  in
  let iommu_maps =
    Hashtbl.fold (fun _ i acc -> acc + Ava_device.Iommu.maps i) h.Host.iommus 0
  in
  List.fold_left add
    { (router_snap h.Host.router h.Host.hv) with iommu_maps }
    (gpu_snap ~makespan gpus :: List.map server_snap servers)

(* --------------------------------------------------------- rodinia -- *)

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rodinia_ops api order =
  List.map
    (fun (b : Rodinia.benchmark) () ->
      b.Rodinia.run api;
      true)
    order

type cl_run = {
  pass : pass;
  setup_s : float;
  calls : int;
  snap : snap;
}

(* One guest on a classic CL host running [order]: the async spec over
   the shm ring, transfer cache, SVA, doorbell and obs off unless
   asked.  [before_run] sees the host after set-up (frame capture). *)
let rodinia_remoted ?(technique = Host.Ava Transport.Shm_ring) ?obs
    ?(before_run = fun (_ : Host.cl_host) -> ()) order =
  let e = Engine.create () in
  let (host, guest), setup_s =
    setup (fun () ->
        let host = Host.create_cl_host ?obs e in
        (host, Host.add_cl_vm host ~technique ~name:"rodinia"))
  in
  before_run host;
  let c = Apis.ctx "api.cl" in
  let pass = drive ~ctxs:[ c ] e (rodinia_ops (Apis.cl c guest.Host.g_api) order) in
  let snap =
    add (cl_host_snap host ~makespan:(Engine.now e)) (stub_snap guest.Host.g_stub)
  in
  { pass; setup_s; calls = Vm.api_calls guest.Host.g_vm; snap }

let rodinia_native order =
  let e = Engine.create () in
  let api, _ = Host.native_cl e in
  let c = Apis.ctx "api.cl" in
  drive ~ctxs:[ c ] e (rodinia_ops (Apis.cl c api) order)

(* ----------------------------------------------------------- fleet -- *)

(* Several hundred tenants of vec-add sessions: Pareto work, hot and
   straggler classes, diurnal arrivals (see [Tracegen]). *)
let fleet_trace ~seed ~tenants =
  Tracegen.generate
    {
      Tracegen.default with
      Tracegen.tg_seed = Int64.of_int seed;
      tg_tenants = tenants;
      tg_mean_interarrival_ns = Time.us 40;
      tg_sessions_mean = 4.0;
      tg_think_mean_ns = Time.us 80;
    }

(* Events grouped per tenant, in trace order. *)
let by_tenant events =
  let groups = Hashtbl.create 256 in
  List.iter
    (fun ev ->
      let id = Tracegen.tenant ev in
      Hashtbl.replace groups id
        (ev :: Option.value (Hashtbl.find_opt groups id) ~default:[]))
    events;
  Hashtbl.fold (fun id evs acc -> (id, List.rev evs) :: acc) groups []
  |> List.sort compare

type fleet_run = {
  f_pass : pass;  (** [virt]: session latency from its due time *)
  f_service : (int * Time.t) list;  (** (work, virtual service time) *)
  f_sessions : int;
  f_setup_s : float;
  f_calls : int;
  f_admit_s : float;  (** wall seconds inside [Cluster.admit] *)
  f_snap : snap;
  f_pool_migrations : int;
  f_pool_rebalances : int;
  f_busy_skew : float;  (** max / mean device busy time *)
  f_admissions : int;
  f_rejected_admissions : int;
  f_cross_migrations : int;
}

(* Drive the trace through [Cluster.admit] / [run_session] / [retire]
   on 2 hosts x 2 devices, least-loaded admission, rebalancer on. *)
let fleet_remoted ?(obs = true) groups =
  let e = Engine.create () in
  let c, setup_s =
    setup (fun () ->
        let obs = if obs then Some (Ava_obs.Obs.create ()) else None in
        Cluster.create ~policy:Cluster.Global_least_loaded ~devices_per_host:2
          ?obs ~hosts:2 e)
  in
  Cluster.start_rebalancer c;
  let n = List.length groups and finished = ref 0 in
  let lat = ref [] and service = ref [] and failed = ref 0 in
  let admit_s = ref 0.0 and root = ref (-1) in
  let until at =
    let now = Engine.now e in
    if at > now then Engine.delay (at - now)
  in
  List.iter
    (fun (id, evs) ->
      Engine.spawn e (fun () ->
          let ctx = Apis.ctx "api.cl" in
          let tenant = ref None in
          List.iter
            (function
              | Tracegen.Arrive { at; _ } -> (
                  until at;
                  let w0 = Meter.wall () in
                  match
                    Meter.span ~parent:!root "cluster.admit" (fun () ->
                        Cluster.admit c ~name:(Printf.sprintf "t%d" id))
                  with
                  | tn ->
                      admit_s := !admit_s +. (Meter.wall () -. w0);
                      tenant := Some (tn, Apis.cl ctx (Cluster.api tn))
                  | exception Invalid_argument _ -> ())
              | Tracegen.Session { at; work; _ } -> (
                  until at;
                  match !tenant with
                  | None ->
                      incr failed;
                      lat := 0 :: !lat
                  | Some (_, api) ->
                      let start = Engine.now e in
                      let sp = Meter.open_span ~parent:!root "cluster.run_session" in
                      ctx.Apis.parent := sp.Meter.id;
                      let ok =
                        try Cluster.run_session api ~work with _ -> false
                      in
                      Meter.close_span sp;
                      if not ok then incr failed;
                      lat := (Engine.now e - at) :: !lat;
                      service := (work, Engine.now e - start) :: !service)
              | Tracegen.Depart { at; _ } -> (
                  until at;
                  match !tenant with
                  | Some (tn, _) ->
                      ignore
                        (Meter.span ~parent:!root "cluster.retire" (fun () ->
                             Cluster.retire c ~vm_id:(Cluster.vm_id tn)));
                      tenant := None
                  | None -> ()))
            evs;
          incr finished))
    groups;
  Engine.spawn e (fun () ->
      let rec wait () =
        if !finished < n then begin
          Engine.delay (Time.us 100);
          wait ()
        end
        else Cluster.stop c
      in
      wait ());
  Gc.full_major ();
  let p0 = !Meter.payload in
  let a0 = Meter.allocated () and w0 = Meter.wall () and c0 = Meter.cpu () in
  let sp = Meter.open_span "engine.run" in
  root := sp.Meter.id;
  Engine.run e;
  Meter.close_span sp;
  let cpu = Meter.cpu () -. c0 and wall = Meter.wall () -. w0 in
  let alloc = Meter.allocated () -. a0 in
  let hosts = List.init (Cluster.n_hosts c) (Cluster.cl_host c) in
  let vms = Hashtbl.create 256 in
  List.iter
    (fun (h : Host.cl_host) ->
      List.iter (fun v -> Hashtbl.replace vms (Vm.id v) v) (Ava_hv.Hypervisor.vms h.Host.hv))
    hosts;
  let calls = Hashtbl.fold (fun _ v acc -> acc + Vm.api_calls v) vms 0 in
  let pools = List.filter_map (fun (h : Host.cl_host) -> h.Host.pool) hosts in
  let busy =
    List.concat_map
      (fun p -> List.map (fun d -> Meter.fi d.Host.Pool.ds_busy_ns) (Host.Pool.stats p))
      pools
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 pools in
  {
    f_pass =
      {
        cpu;
        wall;
        alloc;
        events = Engine.events_executed e;
        virt = List.rev !lat;
        failed = !failed;
        payload = !Meter.payload - p0;
      };
    f_service = List.rev !service;
    f_sessions = List.length !lat;
    f_setup_s = setup_s;
    f_calls = calls;
    f_admit_s = !admit_s;
    f_snap =
      List.fold_left add zero
        (List.map (fun h -> cl_host_snap h ~makespan:(Engine.now e)) hosts);
    f_pool_migrations = sum Host.Pool.migrations;
    f_pool_rebalances = sum Host.Pool.rebalances;
    f_busy_skew =
      Meter.ratio (List.fold_left Float.max 0.0 busy) (Meter.mean busy);
    f_admissions = Cluster.admissions c;
    f_rejected_admissions = Cluster.rejected_admissions c;
    f_cross_migrations = Cluster.cross_migrations c;
  }

(* The same sessions back to back on one native CL stack, [native_runs]
   times over so the phase is long enough to time; CPU time and
   allocation are per run through the sessions. *)
let native_runs = 5

let fleet_native events =
  let works =
    List.filter_map
      (function Tracegen.Session { work; _ } -> Some work | _ -> None)
      events
  in
  let e = Engine.create () in
  let api, _ = Host.native_cl e in
  let c = Apis.ctx "api.cl" in
  let api = Apis.cl c api in
  let pass =
    drive ~ctxs:[ c ] e
      (List.concat
         (List.init native_runs (fun _ ->
              List.map (fun work () -> Cluster.run_session api ~work) works)))
  in
  let k = Meter.fi native_runs in
  let virt = List.filteri (fun i _ -> i < List.length works) pass.virt in
  ( { pass with cpu = pass.cpu /. k; wall = pass.wall /. k; alloc = pass.alloc /. k; virt },
    List.combine works virt )

(* Mean over remoted sessions of service time / native time at the same
   work. *)
let fleet_rel service native =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (w, t) -> Hashtbl.replace tbl w t) native;
  Meter.mean
    (List.map
       (fun (w, t) ->
         Meter.ratio (Meter.fi t)
           (Meter.fi (Option.value (Hashtbl.find_opt tbl w) ~default:0)))
       service)

(* ------------------------------------------------------- dataplane -- *)

(* Rodinia programs whose buffers are MBs. *)
let large_programs = [ "gaussian"; "lud"; "srad" ]

(* Bytes with runs of 1-64 repeats of seeded symbols: compressible by
   the QA device's RLE, and different for every seed. *)
let seeded_bytes st n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    let run = 1 + Random.State.int st 64 and c = Char.chr (Random.State.int st 256) in
    for k = !i to Stdlib.min n (!i + run) - 1 do
      Bytes.set b k c
    done;
    i := !i + run
  done;
  b

type dp_inputs = {
  cl_order : Rodinia.benchmark list;
  qa_bufs : bytes list;
  st_a : bytes;
  st_b : bytes;
  st_batch : bytes;
}

let st_n = 256 * 1024
let st_item = 4096
let st_items = 8  (* the balanced device's batch queue depth *)

let dp_inputs seed =
  let st = Random.State.make [| seed; 7 |] in
  let ints () =
    let b = Bytes.create (4 * st_n) in
    for i = 0 to st_n - 1 do
      Bytes.set_int32_le b (4 * i) (Int32.of_int (Random.State.int st 1_000_000))
    done;
    b
  in
  {
    cl_order =
      shuffle seed (List.filter_map Rodinia.find large_programs);
    qa_bufs = List.init 4 (fun _ -> seeded_bytes st (1024 * 1024));
    st_a = ints ();
    st_b = ints ();
    st_batch = seeded_bytes st (st_items * st_item);
  }

let cl_cache_bytes = 2 * 1024 * 1024
let nc_cache_bytes = 128 * 1024 * 1024

(* Each large program deployed twice on its own guest. *)
let dp_cl_ops api inputs =
  List.concat_map
    (fun (b : Rodinia.benchmark) ->
      List.init 2 (fun _ () ->
          b.Rodinia.run api;
          true))
    inputs.cl_order

let dp_nc_ops api =
  List.init 2 (fun _ () ->
      Inception.run ~inferences:2 api;
      true)

let qa_ok = function Ok v -> v | Error _ -> failwith "qa call failed"

let dp_qa_ops (module QA : Ava_simqa.Api.S) inputs =
  let sessions = ref None in
  let open_sessions () =
    match !sessions with
    | Some s -> s
    | None ->
        let inst = qa_ok (QA.qaStartInstance ~index:0) in
        let s =
          ( qa_ok (QA.qaCreateSession inst Ava_simqa.Types.Dir_compress ~level:6),
            qa_ok (QA.qaCreateSession inst Ava_simqa.Types.Dir_decompress ~level:6) )
        in
        sessions := Some s;
        s
  in
  List.map
    (fun x () ->
      let cs, ds = open_sessions () in
      let packed = qa_ok (QA.qaCompress cs ~src:x) in
      Bytes.equal (qa_ok (QA.qaDecompress ds ~src:packed)) x)
    inputs.qa_bufs

let st_ok = function Ok v -> v | Error _ -> failwith "st call failed"

let dp_st_ops (module A : Ava_simst.Api.S) inputs =
  let vadd () =
    let s = st_ok (A.stStreamCreate ()) in
    let size = 4 * st_n in
    let a = st_ok (A.stMemAlloc ~size) and b = st_ok (A.stMemAlloc ~size) in
    let out = st_ok (A.stMemAlloc ~size) in
    st_ok (A.stMemcpyHtoDAsync a ~src:inputs.st_a s);
    st_ok (A.stMemcpyHtoDAsync b ~src:inputs.st_b s);
    st_ok (A.stLaunchKernel s ~name:"vadd" ~a ~b ~out ~n:st_n);
    let res = st_ok (A.stMemcpyDtoH ~size out) in
    let good = ref true in
    for i = 0 to st_n - 1 do
      let x = Bytes.get_int32_le inputs.st_a (4 * i)
      and y = Bytes.get_int32_le inputs.st_b (4 * i) in
      if Bytes.get_int32_le res (4 * i) <> Int32.add x y then good := false
    done;
    List.iter (fun m -> st_ok (A.stMemFree m)) [ a; b; out ];
    st_ok (A.stStreamDestroy s);
    !good
  in
  let batch () =
    let s = st_ok (A.stStreamCreate ()) in
    let batch = inputs.st_batch in
    let expect = Ava_simst.Device.batch_scores ~batch ~item_size:st_item in
    let good = ref true in
    for _ = 1 to 4 do
      let ticket = st_ok (A.stBatchSubmit s ~batch ~item_size:st_item) in
      let scores = st_ok (A.stBatchCollect s ~ticket ~size:(Bytes.length expect)) in
      if not (Bytes.equal scores expect) then good := false
    done;
    st_ok (A.stStreamDestroy s);
    !good
  in
  [ vadd; batch; vadd; batch ]

type dp_part = {
  part : string;
  d_remoted : pass;
  d_native : pass;
  d_setup_s : float;
  d_calls : int;
  d_snap : snap;
}

(* Capture hook for the traced run: sees each remoted part's API server
   right after set-up. *)
type capture = { capture : 'st. 'st Server.t -> unit }

let no_capture = { capture = (fun _ -> ()) }

let dp_cl ?(cap = no_capture) inputs =
  let e = Engine.create () in
  let (host, guests), setup_s =
    setup (fun () ->
        let host =
          Host.create_cl_host ~transfer_cache:cl_cache_bytes ~sva:true
            ~doorbell:Transport.default_doorbell e
        in
        ( host,
          List.map
            (fun (b : Rodinia.benchmark) -> Host.add_cl_vm host ~name:b.Rodinia.name)
            inputs.cl_order ))
  in
  cap.capture host.Host.server;
  let c = Apis.ctx "api.cl" in
  let ops =
    List.concat
      (List.map2
         (fun (g : Host.cl_guest) b ->
           dp_cl_ops (Apis.cl c g.Host.g_api) { inputs with cl_order = [ b ] })
         guests inputs.cl_order)
  in
  let remoted = drive ~ctxs:[ c ] e ops in
  let snap =
    List.fold_left add
      (cl_host_snap host ~makespan:(Engine.now e))
      (List.map (fun (g : Host.cl_guest) -> stub_snap g.Host.g_stub) guests)
  in
  let ne = Engine.create () in
  let api, _ = Host.native_cl ne in
  let nc = Apis.ctx "api.cl" in
  let native = drive ~ctxs:[ nc ] ne (dp_cl_ops (Apis.cl nc api) inputs) in
  {
    part = "cl";
    d_remoted = remoted;
    d_native = native;
    d_setup_s = setup_s;
    d_calls =
      List.fold_left (fun acc (g : Host.cl_guest) -> acc + Vm.api_calls g.Host.g_vm) 0 guests;
    d_snap = snap;
  }

let dp_nc ?(cap = no_capture) () =
  let e = Engine.create () in
  let (host, guest), setup_s =
    setup (fun () ->
        let host = Host.create_nc_host ~transfer_cache:nc_cache_bytes e in
        (host, Host.add_nc_vm host ~name:"inception"))
  in
  cap.capture host.Host.nc_server;
  let c = Apis.ctx "api.nc" in
  let remoted = drive ~ctxs:[ c ] e (dp_nc_ops (Apis.nc c guest.Host.ng_api)) in
  let ne = Engine.create () in
  let api, _ = Host.native_nc ne in
  let nc = Apis.ctx "api.nc" in
  let native = drive ~ctxs:[ nc ] ne (dp_nc_ops (Apis.nc nc api)) in
  {
    part = "nc";
    d_remoted = remoted;
    d_native = native;
    d_setup_s = setup_s;
    d_calls = Vm.api_calls guest.Host.ng_vm;
    d_snap =
      List.fold_left add zero
        [
          router_snap host.Host.nc_router host.Host.nc_hv;
          server_snap host.Host.nc_server;
          stub_snap guest.Host.ng_stub;
        ];
  }

let dp_qa ?(cap = no_capture) inputs =
  let e = Engine.create () in
  let (host, guest), setup_s =
    setup (fun () ->
        let host = Host.create_qa_host e in
        (host, Host.add_qa_vm host ~name:"compress"))
  in
  cap.capture host.Host.qa_server;
  let c = Apis.ctx "api.qa" in
  let remoted = drive ~ctxs:[ c ] e (dp_qa_ops (Apis.qa c guest.Host.qg_api) inputs) in
  let ne = Engine.create () in
  let api, _ = Host.native_qa ne in
  let nc = Apis.ctx "api.qa" in
  let native = drive ~ctxs:[ nc ] ne (dp_qa_ops (Apis.qa nc api) inputs) in
  {
    part = "qa";
    d_remoted = remoted;
    d_native = native;
    d_setup_s = setup_s;
    d_calls = Vm.api_calls guest.Host.qg_vm;
    d_snap =
      List.fold_left add zero
        [
          router_snap host.Host.qa_router host.Host.qa_hv;
          server_snap host.Host.qa_server;
          stub_snap guest.Host.qg_stub;
        ];
  }

let dp_st ?(cap = no_capture) inputs =
  let e = Engine.create () in
  let (host, guest), setup_s =
    setup (fun () ->
        let host = Host.create_st_host e in
        (host, Host.add_st_vm host ~name:"stream"))
  in
  cap.capture host.Host.st_server;
  let c = Apis.ctx "api.st" in
  let remoted = drive ~ctxs:[ c ] e (dp_st_ops (Apis.st c guest.Host.sg_api) inputs) in
  let ne = Engine.create () in
  let api, _ = Host.native_st ne in
  let nc = Apis.ctx "api.st" in
  let native = drive ~ctxs:[ nc ] ne (dp_st_ops (Apis.st nc api) inputs) in
  {
    part = "st";
    d_remoted = remoted;
    d_native = native;
    d_setup_s = setup_s;
    d_calls = Vm.api_calls guest.Host.sg_vm;
    d_snap =
      List.fold_left add zero
        [
          router_snap host.Host.st_router host.Host.st_hv;
          server_snap host.Host.st_server;
          stub_snap guest.Host.sg_stub;
        ];
  }

let dataplane ?cap inputs =
  [ dp_cl ?cap inputs; dp_nc ?cap (); dp_qa ?cap inputs; dp_st ?cap inputs ]
