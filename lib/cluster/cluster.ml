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
  h_pool : Ava_core.Cl_silo.state Pool.t;
  h_rng : Rng.t;  (** gossip peer selection *)
  h_view : (Time.t * int) array;
      (** per-host load digest: [(as-of virtual time, load)];
          anti-entropy keeps the fresher entry on merge *)
  mutable h_quarantined : bool;
}

type tenant = {
  t_guest : Host.cl_guest;
  t_vm_id : int;
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

let healthy_hosts t =
  List.filter
    (fun i -> not t.hosts.(i).h_quarantined)
    (List.init (Array.length t.hosts) Fun.id)

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

(* A background process: [f] every [interval] until {!stop}. *)
let spawn_bg t ~interval f =
  t.bg <- t.bg + 1;
  Pool.every t.engine ~interval ~stopped:(fun () -> t.stopped) f

let stop t = t.stopped <- true

(* {1 Construction} *)

let create ?(policy = Global_least_loaded) ?(devices_per_host = 2)
    ?(placement = Pool.Least_loaded) ?transfer_cache ?sva ?obs ?(seed = 7L)
    ~hosts engine =
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
      Host.create_cl_host ?transfer_cache ?sva ?obs
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
        (fun h ->
          spawn_bg t ~interval:g_interval_ns
            (fun () -> gossip_tick t h ~fanout:g_fanout))
        t.hosts
  | _ -> ());
  t

(* {1 Admission} *)

let pick_host t ?affinity ~name () =
  let n = Array.length t.hosts in
  let healthy = healthy_hosts t in
  if healthy = [] then begin
    t.rejected <- t.rejected + 1;
    invalid_arg "Cluster.admit: every host is quarantined"
  end;
  match t.policy with
  | Global_least_loaded -> Pool.argmin (host_load t) healthy
  | Gossip _ ->
      (* A random host plays admission frontend and answers from its
         own, possibly-stale digest.  Quarantine flags are admission
         metadata (fresh), load is gossip state (stale). *)
      let frontend = t.hosts.(Rng.int t.rng n) in
      Pool.argmin (fun i -> snd frontend.h_view.(i)) healthy
  | Affinity ->
      let key = match affinity with Some k -> k | None -> name in
      let pref = Hashtbl.hash key mod n in
      let rec probe k =
        let i = (pref + k) mod n in
        if not t.hosts.(i).h_quarantined then i else probe (k + 1)
      in
      probe 0

let admit ?affinity t ~name =
  let hid = pick_host t ?affinity ~name () in
  let guest = Host.add_cl_vm t.hosts.(hid).h_host ~name in
  let vm_id = Vm.id guest.Host.g_vm in
  let tn =
    { t_guest = guest; t_vm_id = vm_id; t_host = hid }
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

   The pool's skew step ([Pool.skew_pick]) one level up: the bins are
   the healthy hosts in id order, the candidates the hot host's tenants
   in [t.tenants] order (newest admission first), weighed by their
   accumulated device time.  Returns whether the victim now runs on the
   cold host. *)

let rebalance_now t =
  let bins = List.map (fun i -> (i, host_load t i)) (healthy_hosts t) in
  let candidates ~hot ~cold:_ =
    List.filter_map
      (fun (id, tn) ->
        if tn.t_host <> hot then None
        else
          match Pool.vm_of t.hosts.(hot).h_pool ~vm_id:id with
          | Some vm -> Some (id, Vm.device_time_ns vm)
          | None -> None)
      t.tenants
  in
  let skew = Pool.default_rebalance.rb_skew in
  match Pool.skew_pick ~skew bins ~candidates with
  | None -> false
  | Some { Pool.sm_victim = id; sm_cold = cold; _ } -> (
      ignore (migrate_tenant t ~vm_id:id ~dest:cold);
      match List.assoc_opt id t.tenants with
      | Some tn -> tn.t_host = cold
      | None -> false)

let start_rebalancer ?(interval = Time.ms 1) t =
  spawn_bg t ~interval (fun () -> ignore (rebalance_now t))

(* {1 Trace-driven load} *)

(* One tenant session: the campaign's reference vec-add pipeline with
   [work] kernel launches instead of one and — unlike the campaign,
   whose tenants live for the whole scenario — a full teardown.  The
   releases matter beyond hygiene: the migration record log prunes an
   object's history on dealloc, so a tenant that churns through many
   sessions keeps its replay cost proportional to live state, not
   lifetime. *)
let run_session apim ~work =
  try Clutil.vec_add apim ~n:64 ~launches:(Stdlib.max 1 work) ~release:true
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
      Engine.spawn t.engine (fun () ->
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
     drains.  The watch's own stop condition is that moment, so it
     also stops the fleet's background processes. *)
  let all_done () = Hashtbl.length done_at >= total && (stop t; true) in
  if t.bg > 0 then
    Pool.every t.engine ~interval:(Time.us 100) ~stopped:all_done ignore;
  Engine.run t.engine;
  let makespan = Hashtbl.fold (fun _ at acc -> Stdlib.max at acc) done_at 0 in
  {
    tr_sessions = !sessions;
    tr_failures = !failures;
    tr_retired = !retired;
    tr_makespan = makespan;
  }
