(* The cluster tier: pooled hosts behind an admission layer.

   Every host is a complete single-host stack — its own devices, API
   servers, router — standing on one shared engine, so the
   fleet runs in a single deterministic virtual timeline.  The cluster
   adds exactly two things: admission (which host gets a new tenant,
   under pluggable policies with different knowledge models) and
   cross-host migration (the pool's one migration handoff, into
   another host's pool and router).

   Invariant the benches pin: a single-host cluster under the global
   policy makes no extra random draws and advances no extra virtual
   time, so it is bit-identical to driving the bare pooled host
   directly. *)

module Host = Ava_core.Host
module Pool = Ava_pool.Pool
module Obs = Ava_obs.Obs
module Gpu = Ava_device.Gpu
module Vm = Ava_hv.Vm
module Clutil = Ava_workloads.Clutil
open Ava_sim
open Ava_simcl.Types

type policy =
  | Global_least_loaded
  | Gossip of { g_fanout : int; g_interval_ns : Time.t }
  | Affinity

let policy_to_string = function
  | Global_least_loaded -> "global-least-loaded"
  | Gossip { g_fanout; g_interval_ns } ->
      Printf.sprintf "gossip-f%d-%dns" g_fanout g_interval_ns
  | Affinity -> "affinity"

type host = {
  h_id : int;
  h_host : Host.cl_host;
  h_pool : Ava_core.Cl_handlers.state Pool.t;
  h_rng : Rng.t;  (** gossip peer selection *)
  h_view : (Time.t * int) array;
      (** per-host load digest: [(as-of virtual time, load)];
          anti-entropy keeps the fresher entry on merge *)
  mutable h_quarantined : bool;
}

type tenant = {
  t_name : string;
  t_guest : Host.cl_guest;
  t_vm_id : int;
  t_footprint : int option;
  mutable t_host : int;
}

type t = {
  engine : Engine.t;
  policy : policy;
  hosts : host array;
  obs : Obs.t option;
  rng : Rng.t;  (** admission frontend choice under [Gossip] *)
  devices_per_host : int;
  mutable tenants : (int * tenant) list;
  mutable admissions : int;
  mutable rejected : int;
  mutable cross_migrations : int;
  mutable stopped : bool;
  mutable bg : int;  (** background (gossip / rebalancer) processes *)
}

(* Hosts get disjoint VM-id ranges so tenant ids are globally unique
   across the fleet; the default base of host 0 keeps a single-host
   cluster's ids identical to a bare host's. *)
let vm_id_stride = 1 lsl 20

(* {1 Read-out} *)

let n_hosts t = Array.length t.hosts
let cl_host t i = t.hosts.(i).h_host
let policy t = t.policy
let admissions t = t.admissions
let rejected_admissions t = t.rejected
let cross_migrations t = t.cross_migrations

let host_load t i =
  let pool = t.hosts.(i).h_pool in
  let acc = ref 0 in
  for d = 0 to Pool.n_devices pool - 1 do
    acc := !acc + Pool.load_of pool d
  done;
  !acc

let host_busy_ns t i =
  let pool = t.hosts.(i).h_pool in
  let acc = ref 0 in
  for d = 0 to Pool.n_devices pool - 1 do
    acc := !acc + Gpu.busy_ns (Pool.gpu pool d)
  done;
  !acc

let total_devices t = Array.length t.hosts * t.devices_per_host
let quarantine_host t i = t.hosts.(i).h_quarantined <- true
let unquarantine_host t i = t.hosts.(i).h_quarantined <- false
let is_quarantined t i = t.hosts.(i).h_quarantined

let tenant_summaries t =
  match t.obs with None -> [] | Some obs -> Obs.vm_totals obs

(* {1 Gossip} *)

(* Push-style anti-entropy: refresh the host's own digest entry, then
   push the whole view to [fanout] random peers; each side keeps the
   fresher entry per host.  Admission under [Gossip] reads these views,
   so its picture of the fleet lags reality by up to the gossip
   diameter — the staleness the bench quantifies against the omniscient
   global policy. *)
let gossip_tick t h ~fanout =
  h.h_view.(h.h_id) <- (Engine.now t.engine, host_load t h.h_id);
  let n = Array.length t.hosts in
  for _ = 1 to fanout do
    let peer = t.hosts.((h.h_id + 1 + Rng.int h.h_rng (n - 1)) mod n) in
    Array.iteri
      (fun j ((ts, _) as entry) ->
        let pts, _ = peer.h_view.(j) in
        if ts > pts then peer.h_view.(j) <- entry)
      h.h_view
  done

let spawn_gossip t h ~fanout ~interval =
  t.bg <- t.bg + 1;
  Engine.spawn t.engine
    ~name:(Printf.sprintf "ava-cluster-gossip-h%d" h.h_id)
    (fun () ->
      let rec loop () =
        if not t.stopped then begin
          Engine.delay interval;
          if not t.stopped then begin
            gossip_tick t h ~fanout;
            loop ()
          end
        end
      in
      loop ())

let stop t = t.stopped <- true

(* {1 Construction} *)

let create ?(policy = Global_least_loaded) ?(devices_per_host = 2)
    ?(placement = Pool.Least_loaded) ?transfer_cache ?sva ?obs ?(seed = 7L)
    ?tracing ~hosts engine =
  if hosts < 1 then invalid_arg "Cluster.create: need at least one host";
  if devices_per_host < 1 then
    invalid_arg "Cluster.create: need at least one device per host";
  (match policy with
  | Gossip { g_fanout; g_interval_ns } ->
      if g_fanout < 1 then invalid_arg "Cluster.create: gossip fanout < 1";
      if g_interval_ns <= 0 then
        invalid_arg "Cluster.create: gossip interval <= 0"
  | Global_least_loaded | Affinity -> ());
  let master = Rng.create seed in
  let admission_rng = Rng.split master in
  let mk i =
    let h_rng = Rng.split master in
    let h_host =
      Host.create_cl_host ?transfer_cache ?sva ?obs ?tracing
        ~devices:devices_per_host ~placement
        ~vm_id_base:(1 + (i * vm_id_stride))
        engine
    in
    {
      h_id = i;
      h_host;
      h_pool = h_host.Host.cl_pool;
      h_rng;
      h_view = Array.make hosts (0, 0);
      h_quarantined = false;
    }
  in
  let t =
    {
      engine;
      policy;
      hosts = Array.init hosts mk;
      obs;
      rng = admission_rng;
      devices_per_host;
      tenants = [];
      admissions = 0;
      rejected = 0;
      cross_migrations = 0;
      stopped = false;
      bg = 0;
    }
  in
  (match policy with
  | Gossip { g_fanout; g_interval_ns } when hosts > 1 ->
      Array.iter
        (fun h -> spawn_gossip t h ~fanout:g_fanout ~interval:g_interval_ns)
        t.hosts
  | _ -> ());
  t

(* {1 Admission} *)

let argmin_by f = function
  | [] -> invalid_arg "Cluster.argmin_by: empty"
  | x :: rest ->
      fst
        (List.fold_left
           (fun (bi, bv) i ->
             let v = f i in
             if v < bv then (i, v) else (bi, bv))
           (x, f x) rest)

let pick_host t ?affinity ~name () =
  let n = Array.length t.hosts in
  let healthy =
    List.filter (fun i -> not t.hosts.(i).h_quarantined) (List.init n Fun.id)
  in
  if healthy = [] then begin
    t.rejected <- t.rejected + 1;
    invalid_arg "Cluster.admit: every host is quarantined"
  end;
  match t.policy with
  | Global_least_loaded -> argmin_by (host_load t) healthy
  | Gossip _ ->
      (* A random host plays admission frontend and answers from its
         own, possibly-stale digest.  Quarantine flags are admission
         metadata (fresh), load is gossip state (stale). *)
      let frontend = t.hosts.(Rng.int t.rng n) in
      argmin_by (fun i -> snd frontend.h_view.(i)) healthy
  | Affinity ->
      let key = match affinity with Some k -> k | None -> name in
      let pref = Hashtbl.hash key mod n in
      let rec probe k =
        let i = (pref + k) mod n in
        if not t.hosts.(i).h_quarantined then i else probe (k + 1)
      in
      probe 0

let admit ?footprint ?affinity t ~name =
  let hid = pick_host t ?affinity ~name () in
  let guest = Host.add_cl_vm ?footprint t.hosts.(hid).h_host ~name in
  let vm_id = Vm.id guest.Host.g_vm in
  let tn =
    { t_name = name; t_guest = guest; t_vm_id = vm_id;
      t_footprint = footprint; t_host = hid }
  in
  t.tenants <- (vm_id, tn) :: t.tenants;
  t.admissions <- t.admissions + 1;
  tn

let api tn = tn.t_guest.Host.g_api
let vm_id tn = tn.t_vm_id
let host_of tn = tn.t_host
let find_tenant t ~vm_id = List.assoc_opt vm_id t.tenants
let tenant_ids t = List.sort Stdlib.compare (List.map fst t.tenants)

let retire t ~vm_id =
  match List.assoc_opt vm_id t.tenants with
  | None -> false
  | Some tn ->
      let ok = Host.retire_cl_vm t.hosts.(tn.t_host).h_host ~vm_id in
      if ok then t.tenants <- List.remove_assoc vm_id t.tenants;
      ok

(* {1 Cross-host migration}

   The pool's migration handoff ([Pool.emigrate]) into another host's
   pool: pause, drain, pick a device on the destination pool, replay
   the record log and restore buffers through the source host's
   transfer closure (the record log moves with the VM's server entry),
   seed the destination cursor, carry the reply log and move the router
   flow across routers, detach the source.  The guest is never touched:
   its stub, transport and seq stream survive, exactly as in a
   single-host migration.

   This layer adds only host bookkeeping: the IOMMU moves to the
   destination host's table right after the handoff returns. *)

let migrate_tenant t ~vm_id ~dest =
  if dest < 0 || dest >= Array.length t.hosts then
    invalid_arg (Printf.sprintf "Cluster.migrate_tenant: no host %d" dest);
  if t.hosts.(dest).h_quarantined then
    invalid_arg
      (Printf.sprintf "Cluster.migrate_tenant: host %d is quarantined" dest);
  match List.assoc_opt vm_id t.tenants with
  | None -> 0
  | Some tn when tn.t_host = dest -> 0
  | Some tn -> (
      let src = t.hosts.(tn.t_host) and dst = t.hosts.(dest) in
      match Pool.emigrate src.h_pool ~vm_id ~into:dst.h_pool with
      | None -> 0
      | Some bytes ->
          (match Hashtbl.find_opt src.h_host.Host.iommus vm_id with
          | Some iommu ->
              Hashtbl.remove src.h_host.Host.iommus vm_id;
              Hashtbl.replace dst.h_host.Host.iommus vm_id iommu
          | None -> ());
          tn.t_host <- dest;
          t.cross_migrations <- t.cross_migrations + 1;
          bytes)

(* {1 Fleet rebalancing}

   Same shape as the pool's skew monitor, one level up: when the
   hottest healthy host is loaded beyond [skew] times the healthy
   average, move the resident tenant whose accumulated device time
   best halves the hot-cold gap onto the coldest host. *)

let rebalance_now ?(skew = 1.5) t =
  let healthy =
    List.filter
      (fun i -> not t.hosts.(i).h_quarantined)
      (List.init (Array.length t.hosts) Fun.id)
  in
  if List.length healthy < 2 then false
  else begin
    let loads = List.map (fun i -> (i, host_load t i)) healthy in
    let hot, hot_load =
      List.fold_left
        (fun (bi, bv) (i, v) -> if v > bv then (i, v) else (bi, bv))
        (List.hd loads) (List.tl loads)
    in
    let cold, cold_load =
      List.fold_left
        (fun (bi, bv) (i, v) -> if v < bv then (i, v) else (bi, bv))
        (List.hd loads) (List.tl loads)
    in
    let avg =
      List.fold_left (fun a (_, v) -> a + v) 0 loads / List.length loads
    in
    if hot = cold || hot_load = 0 || float_of_int hot_load <= skew *. float_of_int avg
    then false
    else begin
      let target = (hot_load - cold_load) / 2 in
      let victim =
        List.fold_left
          (fun best (id, tn) ->
            if tn.t_host <> hot then best
            else
              let w =
                match Pool.vm_of t.hosts.(hot).h_pool ~vm_id:id with
                | Some vm -> Vm.device_time_ns vm
                | None -> 0
              in
              if w <= 0 then best
              else
                let d = abs (w - target) in
                match best with
                | Some (_, bd) when bd <= d -> best
                | _ -> Some (id, d))
          None t.tenants
      in
      match victim with
      | None -> false
      | Some (id, _) ->
          ignore (migrate_tenant t ~vm_id:id ~dest:cold);
          (match List.assoc_opt id t.tenants with
          | Some tn -> tn.t_host = cold
          | None -> false)
    end
  end

let start_rebalancer ?(interval = Time.ms 1) ?skew t =
  t.bg <- t.bg + 1;
  Engine.spawn t.engine ~name:"ava-cluster-rebalancer" (fun () ->
      let rec loop () =
        if not t.stopped then begin
          Engine.delay interval;
          if not t.stopped then begin
            ignore (rebalance_now ?skew t);
            loop ()
          end
        end
      in
      loop ())

(* {1 Trace-driven load} *)

(* One tenant session: the vec-add pipeline of the campaign's reference
   workload, with [work] kernel launches instead of one, and — unlike
   the campaign, whose tenants live for the whole scenario — a full
   teardown.  The releases matter beyond hygiene: the migration record
   log prunes an object's history on dealloc, so a tenant that churns
   through many sessions keeps its replay cost proportional to live
   state, not lifetime. *)
let run_session apim ~work =
  let module CL = (val apim : Ava_simcl.Api.S) in
  let ok = Clutil.ok in
  let n = 64 in
  try
    let p = List.hd (ok (CL.clGetPlatformIDs ())) in
    let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
    let ctx = ok (CL.clCreateContext [ d ]) in
    let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
    let a = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
    let b = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
    let out = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
    let i32_bytes l =
      let by = Bytes.create (4 * List.length l) in
      List.iteri
        (fun i v -> Bytes.set_int32_le by (4 * i) (Int32.of_int v))
        l;
      by
    in
    let av = List.init n (fun i -> i) and bv = List.init n (fun i -> 7 * i) in
    ignore
      (ok
         (CL.clEnqueueWriteBuffer q a ~blocking:false ~offset:0
            ~src:(i32_bytes av) ~wait_list:[] ~want_event:false));
    ignore
      (ok
         (CL.clEnqueueWriteBuffer q b ~blocking:false ~offset:0
            ~src:(i32_bytes bv) ~wait_list:[] ~want_event:false));
    let prog =
      ok (CL.clCreateProgramWithSource ctx ~source:"builtin vec_add")
    in
    ok (CL.clBuildProgram prog ~options:"");
    let k = ok (CL.clCreateKernel prog ~name:"vec_add") in
    ok (CL.clSetKernelArg k ~index:0 (Arg_mem a));
    ok (CL.clSetKernelArg k ~index:1 (Arg_mem b));
    ok (CL.clSetKernelArg k ~index:2 (Arg_mem out));
    for _ = 1 to Stdlib.max 1 work do
      ignore
        (ok
           (CL.clEnqueueNDRangeKernel q k ~global_work_size:n
              ~local_work_size:64 ~wait_list:[] ~want_event:false))
    done;
    let data, _ =
      ok
        (CL.clEnqueueReadBuffer q out ~blocking:true ~offset:0 ~size:(4 * n)
           ~wait_list:[] ~want_event:false)
    in
    ok (CL.clFinish q);
    let got =
      List.init n (fun i -> Int32.to_int (Bytes.get_int32_le data (4 * i)))
    in
    ok (CL.clReleaseKernel k);
    ok (CL.clReleaseProgram prog);
    List.iter (fun m -> ok (CL.clReleaseMemObject m)) [ a; b; out ];
    ok (CL.clReleaseCommandQueue q);
    ok (CL.clReleaseContext ctx);
    got = List.map2 ( + ) av bv
  with Clutil.Api_failure _ | Failure _ -> false

type trace_result = {
  tr_sessions : int;
  tr_failures : int;
  tr_retired : int;
  tr_makespan : Time.t;
}

let run_trace t events =
  (* Group per tenant, preserving the trace's time order. *)
  let groups = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      let id = Tracegen.tenant ev in
      let prev =
        match Hashtbl.find_opt groups id with Some l -> l | None -> []
      in
      Hashtbl.replace groups id (ev :: prev))
    events;
  let ids =
    List.sort Stdlib.compare
      (Hashtbl.fold (fun id _ acc -> id :: acc) groups [])
  in
  let total = List.length ids in
  let done_at = Hashtbl.create 64 in
  let sessions = ref 0 and failures = ref 0 and retired = ref 0 in
  let until at =
    let now = Engine.now t.engine in
    if at > now then Engine.delay (at - now)
  in
  List.iter
    (fun id ->
      let evs = List.rev (Hashtbl.find groups id) in
      Engine.spawn t.engine
        ~name:(Printf.sprintf "ava-cluster-tenant-%d" id)
        (fun () ->
          let tn = ref None in
          List.iter
            (fun ev ->
              match ev with
              | Tracegen.Arrive { at; _ } ->
                  until at;
                  tn :=
                    Some (admit t ~name:(Printf.sprintf "trace-t%d" id))
              | Tracegen.Session { at; work; _ } -> (
                  until at;
                  match !tn with
                  | None -> ()
                  | Some tenant ->
                      incr sessions;
                      if not (run_session (api tenant) ~work) then
                        incr failures)
              | Tracegen.Depart { at; _ } -> (
                  until at;
                  match !tn with
                  | None -> ()
                  | Some tenant ->
                      if retire t ~vm_id:(vm_id tenant) then incr retired;
                      tn := None))
            evs;
          Hashtbl.replace done_at id (Engine.now t.engine)))
    ids;
  (* Gossip / rebalancer processes keep the event queue non-empty;
     quiesce them once the last tenant finishes so [Engine.run]
     drains (the pool skew monitor's stop pattern, fleet-wide). *)
  if t.bg > 0 then
    Engine.spawn t.engine ~name:"ava-cluster-trace-watch" (fun () ->
        let rec wait () =
          if Hashtbl.length done_at < total then begin
            Engine.delay (Time.us 100);
            wait ()
          end
          else stop t
        in
        wait ());
  Engine.run t.engine;
  let makespan = Hashtbl.fold (fun _ at acc -> Stdlib.max at acc) done_at 0 in
  {
    tr_sessions = !sessions;
    tr_failures = !failures;
    tr_retired = !retired;
    tr_makespan = makespan;
  }
