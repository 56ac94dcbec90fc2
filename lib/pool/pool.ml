(* The device pool: N simulated GPUs, each fronted by its own API
   server and router dispatch lane, with placement of remoted VMs onto
   backends and migration-driven rebalancing on top.

   The pool is generic over the silo state ['st]: everything
   API-specific — snapshotting live buffers, replaying the record log
   onto the destination silo, restoring contents — is injected as the
   [transfer] closure by the stack-assembly layer.  What lives here is
   the orchestration: placement policies, the one live-migration
   handoff (within this pool or into another host's), device-loss
   evacuation with blame routing, and the periodic skew monitor. *)

module Server = Ava_remoting.Server
module Router = Ava_remoting.Router
module Transport = Ava_transport.Transport

open Ava_sim
open Ava_device
open Ava_hv

(* Placement policies for newly attached (or evacuated) VMs. *)
type placement =
  | Round_robin  (** rotate over healthy devices *)
  | Least_loaded  (** least accumulated estimated device time *)
  | Bin_pack  (** best-fit on declared buffer footprint *)

let placement_to_string = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Bin_pack -> "bin-pack"

let placement_of_string = function
  | "round-robin" | "rr" -> Some Round_robin
  | "least-loaded" | "ll" -> Some Least_loaded
  | "bin-pack" | "bp" -> Some Bin_pack
  | _ -> None

(* Skew monitor configuration: every [rb_interval], migrate one VM off
   the hottest device when its load exceeds [rb_skew] times the healthy
   average. *)
type rebalance = { rb_interval : Time.t; rb_skew : float }

let default_rebalance = { rb_interval = Time.ms 5; rb_skew = 1.5 }

(* What a device can do.  A heterogeneous fleet mixes capabilities; a
   VM either requires one (its silo state only replays onto a same-type
   device) or is portable across the fleet. *)
type capability = Cap_gpu | Cap_npu | Cap_stream

let capability_to_string = function
  | Cap_gpu -> "gpu"
  | Cap_npu -> "npu"
  | Cap_stream -> "stream"

(* The pool's view of one physical accelerator: capability tag plus the
   handful of read-outs and controls the orchestration needs, as
   closures so any device model can sit behind a lane.  [ph_gpu] keeps
   the concrete GPU reachable for the OpenCL-specific callers. *)
type phys = {
  ph_cap : capability;
  ph_busy_ns : unit -> Time.t;
  ph_kernels : unit -> int;
  ph_capacity : int;  (** device-memory capacity, bytes *)
  ph_wedged_by : unit -> int option;
  ph_kill : unit -> unit;
  ph_gpu : Gpu.t option;
}

let phys_of_gpu gpu =
  {
    ph_cap = Cap_gpu;
    ph_busy_ns = (fun () -> Gpu.busy_ns gpu);
    ph_kernels = (fun () -> Gpu.kernels_executed gpu);
    ph_capacity = Devmem.capacity (Gpu.mem gpu);
    ph_wedged_by = (fun () -> Gpu.wedged_by gpu);
    ph_kill = (fun () -> Gpu.kill gpu);
    ph_gpu = Some gpu;
  }

type 'st device = {
  dev_id : int;
  dev_phys : phys;
  dev_server : 'st Server.t;
  mutable dev_healthy : bool;
  mutable dev_evac_in : int;
  mutable dev_evac_out : int;
}

type vm_info = {
  vi_vm : Vm.t;
  vi_footprint : int;  (** declared device-memory footprint, bytes *)
  vi_requires : capability option;  (** [None]: portable across the fleet *)
  mutable vi_device : int;
  mutable vi_migrating : bool;
      (** a migration of this VM is between pause and flow move *)
}

(* Can this device host a VM with this requirement? *)
let compatible requires (d : 'st device) =
  match requires with None -> true | Some c -> d.dev_phys.ph_cap = c

type 'st t = {
  engine : Engine.t;
  router : Router.t;
  placement : placement;
  devices : 'st device array;
  transfer : vm_id:int -> src:'st device -> dst:'st device -> int;
      (** API-specific silo copy; returns bytes moved *)
  mutable vms : (int * vm_info) list;
      (** the residency record: every VM placed here, with its device *)
  mutable rr_cursor : int;
  mutable migrations : int;
  mutable evacuations : int;
  mutable rebalances : int;
  mutable retires : int;
  mutable aborted_migrations : int;
      (** migrations whose VM retired during the drain window *)
  mutable stopped : bool;  (** quiesces the skew monitor *)
}

(* The quiesce window a migration waits after pausing the source
   worker, for calls already at the source to finish. *)
let drain_window = Time.us 200

let create engine ~router ~placement ~transfer devices =
  if devices = [] then invalid_arg "Pool.create: no devices";
  let devices =
    Array.of_list
      (List.mapi
         (fun i (phys, server) ->
           {
             dev_id = i;
             dev_phys = phys;
             dev_server = server;
             dev_healthy = true;
             dev_evac_in = 0;
             dev_evac_out = 0;
           })
         devices)
  in
  (* Lane 0 exists from Router.create; register the rest. *)
  Array.iter
    (fun d -> if d.dev_id > 0 then Router.add_backend router ~id:d.dev_id)
    devices;
  {
    engine;
    router;
    placement;
    devices;
    transfer;
    vms = [];
    rr_cursor = 0;
    migrations = 0;
    evacuations = 0;
    rebalances = 0;
    retires = 0;
    aborted_migrations = 0;
    stopped = false;
  }

(* {1 Read-out} *)

let n_devices t = Array.length t.devices
let placement t = t.placement
let migrations t = t.migrations
let evacuations t = t.evacuations
let rebalances t = t.rebalances
let retires t = t.retires
let aborted_migrations t = t.aborted_migrations

let vm_of t ~vm_id =
  Option.map (fun i -> i.vi_vm) (List.assoc_opt vm_id t.vms)

let device t i =
  if i < 0 || i >= Array.length t.devices then
    invalid_arg (Printf.sprintf "Pool.device: no device %d" i);
  t.devices.(i)

let gpu t i =
  match (device t i).dev_phys.ph_gpu with
  | Some g -> g
  | None ->
      invalid_arg
        (Printf.sprintf "Pool.gpu: device %d is a %s, not a GPU" i
           (capability_to_string (device t i).dev_phys.ph_cap))

let capability t i = (device t i).dev_phys.ph_cap
let server t i = (device t i).dev_server
let is_healthy t i = (device t i).dev_healthy

let resident t i =
  let d = device t i in
  List.sort Stdlib.compare
    (List.filter_map
       (fun (vm_id, info) ->
         if info.vi_device = d.dev_id then Some vm_id else None)
       t.vms)

let device_of t ~vm_id =
  match List.assoc_opt vm_id t.vms with
  | Some info -> Some info.vi_device
  | None -> None

let find_info t vm_id =
  match List.assoc_opt vm_id t.vms with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Pool: unknown vm %d" vm_id)

let sum_residents t (d : 'st device) f =
  List.fold_left
    (fun acc (_, info) ->
      if info.vi_device = d.dev_id then acc + f info else acc)
    0 t.vms

(* Estimated load of a device: the accumulated charged device time of
   its residents (the router's spec-estimate accounting) — the same
   currency WFQ costs are expressed in. *)
let load t d = sum_residents t d (fun info -> Vm.device_time_ns info.vi_vm)
let load_of t i = load t (device t i)
let footprint_used t d = sum_residents t d (fun info -> info.vi_footprint)

type device_stats = {
  ds_id : int;
  ds_capability : capability;
  ds_healthy : bool;
  ds_resident : int list;
  ds_load_ns : Time.t;
  ds_busy_ns : Time.t;
  ds_kernels : int;
  ds_footprint : int;
  ds_evac_in : int;
  ds_evac_out : int;
}

let stats t =
  Array.to_list
    (Array.map
       (fun d ->
         {
           ds_id = d.dev_id;
           ds_capability = d.dev_phys.ph_cap;
           ds_healthy = d.dev_healthy;
           ds_resident = resident t d.dev_id;
           ds_load_ns = load t d;
           ds_busy_ns = d.dev_phys.ph_busy_ns ();
           ds_kernels = d.dev_phys.ph_kernels ();
           ds_footprint = footprint_used t d;
           ds_evac_in = d.dev_evac_in;
           ds_evac_out = d.dev_evac_out;
         })
       t.devices)

(* {1 Control-plane policy}

   Every placement and rebalance choice, at both tiers, goes through
   these: one argmin, one skew step, one periodic loop. *)

(* The first element of [xs] minimising [key]: on ties the earlier
   element wins. *)
let argmin (key : _ -> int) = function
  | [] -> invalid_arg "Pool.argmin: empty"
  | x :: rest ->
      fst
        (List.fold_left
           (fun ((_, bk) as best) y ->
             let k = key y in
             if k < bk then (y, k) else best)
           (x, key x) rest)

type 'a skew_move = {
  sm_hot : int;
  sm_hot_load : int;
  sm_avg : int;
  sm_cold : int;
  sm_victim : 'a;
}

(* The skew step of the pool's skew monitor and the cluster's fleet
   rebalancer: hot is the first maximum, cold the first minimum, and
   the victim the first positive-weight candidate closest to half the
   hot-cold gap. *)
let skew_pick ~skew bins ~candidates =
  match bins with
  | [] -> None
  | _ ->
      let hot, hot_load = argmin (fun (_, l) -> -l) bins in
      let cold, cold_load = argmin snd bins in
      let total = List.fold_left (fun a (_, l) -> a + l) 0 bins in
      let avg = total / List.length bins in
      if
        hot = cold || total = 0
        || float_of_int hot_load <= skew *. float_of_int avg
      then None
      else
        let target = (hot_load - cold_load) / 2 in
        match List.filter (fun (_, w) -> w > 0) (candidates ~hot ~cold) with
        | [] -> None
        | movable ->
            let victim, _ = argmin (fun (_, w) -> abs (w - target)) movable in
            Some
              { sm_hot = hot; sm_hot_load = hot_load; sm_avg = avg;
                sm_cold = cold; sm_victim = victim }

(* The one periodic loop behind the skew monitors and gossip. *)
let every engine ~name ~interval ~stopped f =
  let rec loop () =
    if not (stopped ()) then begin
      Engine.delay interval;
      if not (stopped ()) then (f (); loop ())
    end
  in
  Engine.spawn engine ~name loop

(* {1 Placement} *)

let healthy_list t =
  List.filter (fun d -> d.dev_healthy) (Array.to_list t.devices)

(* Pick a device for a VM with the given declared footprint and
   capability requirement; [None] when no compatible healthy device is
   left.  With [requires = None] the behaviour (including round-robin
   cursor motion) is exactly the homogeneous pool's. *)
let choose ?requires t ~footprint =
  let healthy = List.filter (compatible requires) (healthy_list t) in
  match healthy with
  | [] -> None
  | _ -> (
      match t.placement with
      | Round_robin ->
          let n = Array.length t.devices in
          let rec find k steps =
            if steps >= n then None
            else
              let d = t.devices.(k mod n) in
              if d.dev_healthy && compatible requires d then begin
                t.rr_cursor <- (k + 1) mod n;
                Some d.dev_id
              end
              else find (k + 1) (steps + 1)
          in
          find t.rr_cursor 0
      | Least_loaded -> Some (argmin (load t) healthy).dev_id
      | Bin_pack ->
          (* Best-fit on declared footprints: among devices where the
             VM still fits, the one with the least remaining slack; if
             nothing fits (declared footprints oversubscribe memory),
             fall back to the least-committed device. *)
          let slack d = d.dev_phys.ph_capacity - footprint_used t d in
          let best =
            match List.filter (fun d -> slack d >= footprint) healthy with
            | [] -> argmin (footprint_used t) healthy
            | fits -> argmin slack fits
          in
          Some best.dev_id)

(* Record a VM as resident on its [vi_device]. *)
let add_resident t info = t.vms <- (Vm.id info.vi_vm, info) :: t.vms

(* Place a new VM, recording residency; [device] pins it explicitly
   (still validated against [requires] — a pin must not sneak a silo
   onto a device that cannot replay it). *)
let place ?(footprint = 0) ?requires ?device t ~vm =
  let dev_id =
    match device with
    | Some i ->
        if i < 0 || i >= Array.length t.devices then
          invalid_arg (Printf.sprintf "Pool.place: no device %d" i);
        if not (compatible requires t.devices.(i)) then
          invalid_arg
            (Printf.sprintf "Pool.place: device %d is %s, vm requires %s" i
               (capability_to_string t.devices.(i).dev_phys.ph_cap)
               (match requires with
               | Some c -> capability_to_string c
               | None -> "-"));
        i
    | None -> (
        match choose ?requires t ~footprint with
        | Some i -> i
        | None -> invalid_arg "Pool.place: no compatible healthy device")
  in
  add_resident t
    { vi_vm = vm; vi_footprint = footprint; vi_requires = requires;
      vi_device = dev_id; vi_migrating = false };
  dev_id

(* {1 Live migration} *)

(* The one live-migration handoff, behind the pool's own moves
   ([migrate_vm]: rebalancing, evacuation) and the cluster tier's
   cross-host moves ([emigrate]): move a VM's silo from this pool onto
   device [pick ()] of [into] — this pool or another host's — and its
   call flow with it; [Some bytes] moved, or [None] when refused.  Must
   run inside a simulation process.

   Claim the VM (first mover wins; while claimed, the skew monitor,
   evacuation and retirement keep their hands off), pause the source
   worker, drain, pick the destination device, attach, replay and
   restore through [transfer] (which also hands the record log to the
   destination entry); then, in one synchronous step, resume the
   destination cursor at the source's and carry the reply log
   ([Server.hand_over]), move the flow, detach the source and settle
   residency.  The source's cursor is the first seq it has not
   answered, so a call it answered is answered again from the carried
   log, and only a call it had not answered (one still executing
   there) may execute again at the destination — at-least-once, the
   same contract as the restart/requeue path.

   Ordering rules, each once a campaign-found bug:
   - The cursor is seeded after the transfer, with no suspension point
     before the flow move.  The drain is a grace period, not a
     handshake: a blocking call the source already picked up (a
     [clFinish] riding out its kernels) can complete and be answered
     during the transfer, and a cursor taken at drain end would wait
     forever for it.
   - The reply log moves too: a reply the link lost must replay at the
     destination when the stub retransmits its (now pre-cursor) seq.
   - The source detaches only after the transfer, which still needs its
     context and silo.  Detach it always: a paused-forever source entry
     keeps its content store, and a later move back would NAK digests
     the guest believes resident — a resend loop no retry heals.
   - The record log moves inside [transfer], before the flow does, so
     requeued in-flight calls record at the destination.  Only a
     caller's per-host table (the cluster's IOMMU table) still moves
     after this returns, without suspending. *)
let handoff t info ~into ~pick =
  let vm_id = Vm.id info.vi_vm in
  if info.vi_migrating then None
  else begin
    let src = t.devices.(info.vi_device) in
    info.vi_migrating <- true;
    Server.pause_vm src.dev_server ~vm_id;
    Engine.delay drain_window;
    (* The drain is a suspension point: a VM retired meanwhile has no
       residency, server entry or router flow left to move. *)
    if not (List.mem_assoc vm_id t.vms) then begin
      t.aborted_migrations <- t.aborted_migrations + 1;
      None
    end
    else
      (* The drain is also where a destination can die: a pick that is
         no longer healthy counts as no destination. *)
      match pick () with
      | Some dest when into.devices.(dest).dev_healthy ->
          let dst = into.devices.(dest) and local = into == t in
          (* A VM entering another pool is resident there from now on,
             so host load read-outs count it on both sides of the
             transfer; within one pool residency moves at the end. *)
          if not local then
            add_resident into { info with vi_device = dest; vi_migrating = false };
          let router_end, server_end = Transport.direct t.engine in
          ignore (Server.attach_vm dst.dev_server ~vm_id ~ep:server_end);
          let bytes = t.transfer ~vm_id ~src ~dst in
          Server.hand_over src.dev_server ~into:dst.dev_server ~vm_id;
          Router.transfer_flow t.router ~dst:into.router ~vm_id ~backend:dest
            ~server_side:router_end;
          Server.detach_vm src.dev_server ~vm_id;
          if local then begin
            info.vi_device <- dest;
            info.vi_migrating <- false;
            t.migrations <- t.migrations + 1
          end
          else t.vms <- List.remove_assoc vm_id t.vms;
          Some bytes
      | _ ->
          Server.resume_vm src.dev_server ~vm_id;
          info.vi_migrating <- false;
          None
  end

let migrate_vm t ~vm_id ~dest =
  let info = find_info t vm_id in
  if dest < 0 || dest >= Array.length t.devices then
    invalid_arg (Printf.sprintf "Pool.migrate_vm: no device %d" dest);
  let d = t.devices.(dest) in
  if dest = info.vi_device then 0
  (* Record/replay only reconstructs a silo on a same-type device; a
     capability-pinned VM refuses the move rather than wedging. *)
  else if not (compatible info.vi_requires d && d.dev_healthy) then 0
  else
    Option.value ~default:0
      (handoff t info ~into:t ~pick:(fun () -> Some dest))

let emigrate t ~vm_id ~into =
  if into == t then invalid_arg "Pool.emigrate: destination is the source pool";
  match List.assoc_opt vm_id t.vms with
  | None -> None
  | Some info ->
      handoff t info ~into ~pick:(fun () ->
          choose ?requires:info.vi_requires into ~footprint:info.vi_footprint)

(* {1 Retirement} *)

(* Retire a VM from the pool: detach its server entry (the worker
   exits at its next wakeup), drop its residency, and detach its router
   conn (flow, seq window, circuit breaker), so a future tenant reusing
   the id starts clean.

   Idempotent and validated rather than raising: admit/retire churn in a
   chaos campaign races retirement against the skew monitor and
   device-loss evacuation, so a double retire (or a retire that loses
   the race to a concurrent migration) must be a refusal, not a crash.
   A VM between pause and flow move is refused — the migration holds
   the server entries and router flow; the caller retries after it
   completes. *)
let retire_vm t ~vm_id =
  match List.assoc_opt vm_id t.vms with
  | None -> false
  | Some info when info.vi_migrating -> false
  | Some _ ->
      Array.iter
        (fun d ->
          if Option.is_some (Server.vm_ctx d.dev_server ~vm_id) then
            Server.detach_vm d.dev_server ~vm_id)
        t.devices;
      t.vms <- List.remove_assoc vm_id t.vms;
      Router.detach_vm t.router ~vm_id;
      t.retires <- t.retires + 1;
      true

(* {1 Device loss and evacuation} *)

(* Permanently lose a device (TDR poison escalation, NCS unplug) and
   evacuate its residents onto healthy devices via the placement
   policy.  The client wedging the device at death keeps any open
   circuit breaker — it earned it; every other VM the evacuation moves
   has its breaker cleared so innocent VMs resume service immediately.
   Must run inside a simulation process. *)
let kill_device t ~device:dev_id =
  let dev = device t dev_id in
  if dev.dev_healthy then begin
    (* Blame before the kill: the kill clears the wedge. *)
    let blamed = dev.dev_phys.ph_wedged_by () in
    dev.dev_phys.ph_kill ();
    dev.dev_healthy <- false;
    List.iter
      (fun vm_id ->
        (* Each evacuation drains (a suspension point), so a victim
           later in the list may retire before its turn comes — skip it
           rather than evacuate a ghost.  Only a move this evacuation's
           own handoff made counts: a victim already migrating lands
           where that migration takes it, and keeps its breaker. *)
        match List.assoc_opt vm_id t.vms with
        | None -> ()
        | Some info -> (
            let pick () =
              choose ?requires:info.vi_requires t ~footprint:info.vi_footprint
            in
            match handoff t info ~into:t ~pick with
            | None -> ()
            | Some _ ->
                let dst = t.devices.(info.vi_device) in
                t.evacuations <- t.evacuations + 1;
                dev.dev_evac_out <- dev.dev_evac_out + 1;
                dst.dev_evac_in <- dst.dev_evac_in + 1;
                if blamed <> Some vm_id then
                  Router.clear_breaker t.router ~vm_id))
      (resident t dev_id)
  end

(* {1 Rebalancing} *)

(* One rebalance step through [skew_pick]: the bins are the healthy
   devices in id order, the candidates the hot device's residents in
   vm-id order (so the lowest id wins a tie) that can move to the cold
   device and are not already migrating; a hot device needs at least
   two residents.  Returns whether the victim now lives on the cold
   device.  Must run inside a simulation process. *)
let rebalance_now ?(skew = default_rebalance.rb_skew) t =
  let bins = List.map (fun d -> (d.dev_id, load t d)) (healthy_list t) in
  let candidates ~hot ~cold =
    match List.filter (fun (_, info) -> info.vi_device = hot) t.vms with
    | [] | [ _ ] -> []
    | on_hot ->
        List.filter_map
          (fun (vm_id, info) ->
            if
              info.vi_migrating
              || not (compatible info.vi_requires t.devices.(cold))
            then None
            else Some (vm_id, Vm.device_time_ns info.vi_vm))
          (List.sort (fun (a, _) (b, _) -> Int.compare a b) on_hot)
  in
  match skew_pick ~skew bins ~candidates with
  | None -> false
  | Some m ->
      let vm_id = m.sm_victim in
      ignore (migrate_vm t ~vm_id ~dest:m.sm_cold);
      let moved = device_of t ~vm_id = Some m.sm_cold in
      if moved then t.rebalances <- t.rebalances + 1;
      moved

(* The skew monitor: [rebalance_now] every [rb_interval].  It must be
   stopped explicitly ([stop]) or [Engine.run] would never drain its
   event queue. *)
let start_rebalancer ?(config = default_rebalance) t =
  every t.engine ~name:"ava-pool-rebalance" ~interval:config.rb_interval
    ~stopped:(fun () -> t.stopped)
    (fun () -> ignore (rebalance_now ~skew:config.rb_skew t))

let stop t = t.stopped <- true
