(* The API server: a non-privileged host process executing forwarded
   calls against the vendor silo.

   One worker process — and one ['st] instance (e.g. a fresh SimCL native
   stack) — per VM gives the process-level isolation §4.1 requires:
   handles from one guest cannot denote another guest's objects.

   Handles on the wire are guest-assigned ids; the per-VM context maps
   them to host objects ({!Ctx.bind}/{!Ctx.resolve}), which is also the
   hook migration uses to re-bind ids after replay on a new host. *)

module Plan = Ava_codegen.Plan
module Transport = Ava_transport.Transport
module Obs = Ava_obs.Obs
module Iommu = Ava_device.Iommu
module Dma = Ava_device.Dma

open Ava_sim

module Ctx = struct
  (* Virtual ids below [first_virtual_id] denote well-known enumerable
     objects (platforms, devices) and pass through unmapped.  Ids the
     server assigns for created objects start at [first_virtual_id]; ids
     the guest pre-assigns (event out-parameters of async calls) start at
     [Stub.first_guest_handle] — disjoint ranges, one map. *)
  let first_virtual_id = 0x1000

  type t = {
    ctx_vm : int;
    handles : (int, int) Hashtbl.t;  (** virtual id -> host handle *)
    mutable next_vid : int;
  }

  let create ~vm_id =
    { ctx_vm = vm_id; handles = Hashtbl.create 32; next_vid = first_virtual_id }

  let vm t = t.ctx_vm

  let fresh t =
    let v = t.next_vid in
    t.next_vid <- v + 1;
    v

  (* The most recently assigned virtual id (used by migration replay to
     re-bind objects to their original ids). *)
  let last_fresh t = t.next_vid - 1
  let next_vid t = t.next_vid

  (* Advance the fresh-id counter to at least [vid].  Migration replay
     onto a fresh context must reserve the source's id range first:
     replay mints a fresh id for each re-created object before
     re-binding it to its original id, and an unreserved counter mints
     ids that collide with originals already re-bound — the mint's bind
     silently overwrites, leaving a guest-held handle dangling. *)
  let reserve t vid = if vid > t.next_vid then t.next_vid <- vid

  let bind t ~guest ~host = Hashtbl.replace t.handles guest host

  let resolve t guest =
    if guest < first_virtual_id then Some guest
    else Hashtbl.find_opt t.handles guest

  (* Reverse lookup: host handle -> virtual id (linear; tables are small
     and this only serves info queries). *)
  let reverse t ~host =
    Hashtbl.fold
      (fun g h acc -> if h = host && acc = None then Some g else acc)
      t.handles None

  let forget t guest = Hashtbl.remove t.handles guest
end

(* Per-VM content store, the server half of the transfer cache: maps
   payload digests to payloads, bounded in bytes with LRU eviction.  The
   store is an in-memory structure of the front-end process, so a crash/
   restart empties it (refs then miss and NAK, which the stub heals by
   resending the full payload). *)
module Store = struct
  type entry = { se_data : bytes; mutable se_stamp : int }

  type t = {
    st_capacity : int;  (** total payload bytes; 0 disables the store *)
    st_tbl : (int64, entry) Hashtbl.t;
    st_order : (int64 * int) Queue.t;
        (** lazy LRU queue: stale (digest, stamp) pairs are skipped *)
    mutable st_stamp : int;
    mutable st_resident : int;
    mutable st_hits : int;
    mutable st_misses : int;
    mutable st_insertions : int;
    mutable st_evictions : int;
    mutable st_saved_bytes : int;  (** payload bytes served from store *)
    mutable st_rejected : int;  (** announces whose digest didn't verify *)
  }

  let create ~capacity =
    {
      st_capacity = Stdlib.max 0 capacity;
      st_tbl = Hashtbl.create 32;
      st_order = Queue.create ();
      st_stamp = 0;
      st_resident = 0;
      st_hits = 0;
      st_misses = 0;
      st_insertions = 0;
      st_evictions = 0;
      st_saved_bytes = 0;
      st_rejected = 0;
    }

  let touch t digest e =
    t.st_stamp <- t.st_stamp + 1;
    e.se_stamp <- t.st_stamp;
    Queue.push (digest, t.st_stamp) t.st_order

  let rec evict_lru t =
    match Queue.take_opt t.st_order with
    | None -> ()
    | Some (digest, stamp) -> (
        match Hashtbl.find_opt t.st_tbl digest with
        | Some e when e.se_stamp = stamp ->
            Hashtbl.remove t.st_tbl digest;
            t.st_resident <- t.st_resident - Bytes.length e.se_data;
            t.st_evictions <- t.st_evictions + 1
        | _ -> evict_lru t (* stale queue entry: skip *))

  let find t digest =
    match Hashtbl.find_opt t.st_tbl digest with
    | None -> None
    | Some e ->
        touch t digest e;
        Some e.se_data

  let insert t digest data =
    let len = Bytes.length data in
    if t.st_capacity > 0 && len <= t.st_capacity then begin
      match Hashtbl.find_opt t.st_tbl digest with
      | Some e -> touch t digest e (* idempotent re-announce *)
      | None ->
          let e = { se_data = data; se_stamp = 0 } in
          Hashtbl.replace t.st_tbl digest e;
          t.st_resident <- t.st_resident + len;
          t.st_insertions <- t.st_insertions + 1;
          touch t digest e;
          while t.st_resident > t.st_capacity do
            evict_lru t
          done
    end

  (* Drop every resident payload (counters survive): front-end restart
     and migration both empty the store. *)
  let clear t =
    Hashtbl.reset t.st_tbl;
    Queue.clear t.st_order;
    t.st_resident <- 0
end

type cache_stats = {
  cs_hits : int;  (** refs resolved from the store *)
  cs_misses : int;  (** refs that missed (each triggers a NAK digest) *)
  cs_insertions : int;
  cs_evictions : int;
  cs_resident_bytes : int;
  cs_saved_bytes : int;  (** payload bytes served from the store *)
  cs_rejected : int;  (** announces whose digest didn't verify *)
}

(* A handler executes one API function: it gets the per-VM context, the
   per-VM silo state and the raw arguments; it returns
   (status, return-value, out-values). *)
type 'st handler = Ctx.t -> 'st -> Wire.value list -> int * Wire.value * Wire.value list

let replay_cache_cap = Seqwin.horizon

(* What the server knows about one seq of a VM: parked until the gap
   before it fills, policed away by the router, or answered (the reply
   log).  Every cell below the cursor is [Replied] or [Skipped]. *)
type cell = Empty | Held of Message.call | Skipped | Replied of Message.reply

let resolved = function Skipped | Replied _ -> true | Empty | Held _ -> false

type 'st vm_entry = {
  ve_ctx : Ctx.t;
  ve_state : 'st;
  ve_ep : Transport.endpoint;
  mutable ve_paused : bool;
  ve_resume : unit Engine.waitq;
  mutable ve_crashed : bool;  (** down: incoming messages are lost *)
  mutable ve_detached : bool;
      (** superseded (migration away, or re-attach of the same VM): the
          worker exits at its next wakeup instead of racing the
          replacement for inbox messages *)
  mutable ve_expected : int;  (** next seq to execute, in order *)
  ve_window : cell Seqwin.t;  (** the VM's seqs around the cursor *)
  ve_store : Store.t;  (** per-VM content store (transfer cache) *)
  ve_obs : Obs.vm option;  (** this VM's spans, when obs is armed *)
  mutable ve_log : Migrate.t option;
      (** the migration record log: armed iff the server fronts a pool
          device; handed to the destination entry by {!hand_over_log} *)
  mutable ve_sva : (Iommu.t * Dma.t) option;
      (** SVA pairing: the IOMMU resolving mapped-buffer refs and the
          device DMA engine charged for the SG descriptor walk *)
}

(* TDR watchdog configuration: a dispatched call whose handler has not
   returned after [tdr_factor] times its spec resource estimate (floored
   at [tdr_min_ns]) is declared wedged; [tdr_reset] resets the device and
   the call fails with [status_device_lost].

   [tdr_wedged_by], when provided, names the client wedging the shared
   device so blame lands on the culprit: an innocent VM whose call is
   merely stuck *behind* the wedge triggers the reset but keeps its call
   alive — after the reset unwedges the device the call completes
   normally (Windows-TDR semantics: only the offending context's work is
   killed).  Without the query every timeout is blamed on its own
   call. *)
type tdr = {
  tdr_factor : float;
  tdr_min_ns : Time.t;
  tdr_reset : vm_id:int -> unit;
  tdr_wedged_by : (unit -> int option) option;
}

type 'st t = {
  engine : Engine.t;
  plan : Plan.t;
  handlers : (string, 'st handler) Hashtbl.t;
  make_state : vm_id:int -> 'st;
  vm_entries : (int, 'st vm_entry) Hashtbl.t;
  mutable executed : int;
  mutable rejected : int;
  mutable replayed : int;
  mutable restarts : int;
  mutable lost_while_down : int;
  mutable on_call : (vm_id:int -> status:int -> Message.call -> unit) option;
  obs : Obs.t option;
  device_id : int;  (** pool device this server fronts; -1 = unpooled *)
  cache_capacity : int;  (** per-VM content-store bound; 0 = cache off *)
  mutable naks_sent : int;  (** cache-miss NAK messages sent *)
  mutable sva_resolutions : int;  (** calls that resolved ≥1 mapped ref *)
  mutable sva_resolved_bytes : int;
  mutable sva_rejected : int;  (** calls failed on a bad mapped ref *)
  tdr : tdr option;  (** [None]: no watchdog (default) *)
  tdr_scalars : Plan.scalars;  (** [tdr_budget]'s scratch view *)
  mutable tdr_resets : int;  (** watchdog-triggered device resets *)
  mutable device_lost : int;  (** calls failed with [status_device_lost] *)
  mutable unexpected_exns : int;
      (** handler exceptions outside the known protocol set — genuine
          bugs, not guest errors *)
}

(* Remoting-level failure codes carried in reply status (disjoint from
   API error codes, which are negative and > -9000). *)
let status_ok = 0
let status_unknown_function = -9001
let status_bad_arguments = -9002
let status_unknown_handle = -9003

(* Synthesized by the guest stub when a call exhausts its retry budget
   (never sent by the server itself). *)
let status_timeout = -9004

(* The device was lost under this call (hung kernel, TDR reset, USB
   unplug); the silo survives and later calls may succeed again. *)
let status_device_lost = -9005

(* Synthesized by the router for calls rejected while their VM is
   quarantined by the circuit breaker (never sent by the server). *)
let status_vm_quarantined = -9006

(* The handler exception protocol: handlers raise these to signal the
   corresponding statuses; anything else escaping a handler is counted
   as an unexpected exception (a bug surfaced, not a guest error). *)
exception Unknown_handle
exception Bad_args
exception Device_lost

(* Fixed front-end cost of dispatching one call. *)
let exec_overhead_ns = Time.ns 800

let create ?(cache_capacity = 0) ?tdr ?obs
    ?(device_id = -1) engine ~plan ~make_state =
  Wire.intern_plan plan;
  {
    engine;
    plan;
    handlers = Hashtbl.create 64;
    make_state;
    vm_entries = Hashtbl.create 16;
    executed = 0;
    rejected = 0;
    replayed = 0;
    restarts = 0;
    lost_while_down = 0;
    on_call = None;
    obs;
    device_id;
    cache_capacity = Stdlib.max 0 cache_capacity;
    naks_sent = 0;
    sva_resolutions = 0;
    sva_resolved_bytes = 0;
    sva_rejected = 0;
    tdr;
    tdr_scalars = Plan.scalars ();
    tdr_resets = 0;
    device_lost = 0;
    unexpected_exns = 0;
  }

let register t name handler = Hashtbl.replace t.handlers name handler

let set_call_hook t hook = t.on_call <- Some hook

let executed t = t.executed
let rejected t = t.rejected
let replayed t = t.replayed
let restarts t = t.restarts
let lost_while_down t = t.lost_while_down
let naks_sent t = t.naks_sent
let cache_capacity t = t.cache_capacity
let sva_resolutions t = t.sva_resolutions
let sva_resolved_bytes t = t.sva_resolved_bytes
let sva_rejected t = t.sva_rejected
let tdr_resets t = t.tdr_resets
let device_lost t = t.device_lost
let unexpected_exns t = t.unexpected_exns

let find_vm t vm_id = Hashtbl.find_opt t.vm_entries vm_id

let entry_exn t fn vm_id =
  match find_vm t vm_id with
  | Some e -> e
  | None -> invalid_arg ("Server." ^ fn ^ ": unknown vm")

let stats_of_store (s : Store.t) =
  {
    cs_hits = s.Store.st_hits;
    cs_misses = s.Store.st_misses;
    cs_insertions = s.Store.st_insertions;
    cs_evictions = s.Store.st_evictions;
    cs_resident_bytes = s.Store.st_resident;
    cs_saved_bytes = s.Store.st_saved_bytes;
    cs_rejected = s.Store.st_rejected;
  }

let cache_stats t ~vm_id = Option.map (fun e -> stats_of_store e.ve_store) (find_vm t vm_id)

let add_cache_stats a b =
  {
    cs_hits = a.cs_hits + b.cs_hits;
    cs_misses = a.cs_misses + b.cs_misses;
    cs_insertions = a.cs_insertions + b.cs_insertions;
    cs_evictions = a.cs_evictions + b.cs_evictions;
    cs_resident_bytes = a.cs_resident_bytes + b.cs_resident_bytes;
    cs_saved_bytes = a.cs_saved_bytes + b.cs_saved_bytes;
    cs_rejected = a.cs_rejected + b.cs_rejected;
  }

let no_cache_stats =
  {
    cs_hits = 0;
    cs_misses = 0;
    cs_insertions = 0;
    cs_evictions = 0;
    cs_resident_bytes = 0;
    cs_saved_bytes = 0;
    cs_rejected = 0;
  }

let sum_cache_stats = List.fold_left add_cache_stats no_cache_stats

(* Aggregate content-store counters across all attached VMs. *)
let cache_totals t =
  Hashtbl.fold
    (fun _ e acc -> add_cache_stats acc (stats_of_store e.ve_store))
    t.vm_entries no_cache_stats

(* Empty a VM's content store (migration: the destination silo starts
   with no resident payloads; the guest's stale refs heal via NAK). *)
let flush_cache t ~vm_id =
  Store.clear (entry_exn t "flush_cache" vm_id).ve_store

(* Arm SVA resolution for a VM: mapped-buffer refs in its calls resolve
   through [iommu], and the SG descriptor walk is charged to [dma] (the
   device this server fronts). *)
let set_sva t ~vm_id ~iommu ~dma =
  (entry_exn t "set_sva" vm_id).ve_sva <- Some (iommu, dma)

let clear_sva t ~vm_id = (entry_exn t "clear_sva" vm_id).ve_sva <- None
let sva_for t ~vm_id = Option.bind (find_vm t vm_id) (fun e -> e.ve_sva)

(* Map a handler exception to a reply status.  The known protocol
   exceptions are guest-attributable; anything else is a server-side bug
   and is counted loudly rather than silently masquerading as a guest
   error. *)
let classify_exn t = function
  | Unknown_handle ->
      t.rejected <- t.rejected + 1;
      (status_unknown_handle, Wire.Unit, [])
  | Bad_args ->
      t.rejected <- t.rejected + 1;
      (status_bad_arguments, Wire.Unit, [])
  | Device_lost ->
      t.device_lost <- t.device_lost + 1;
      (status_device_lost, Wire.Unit, [])
  | _ ->
      t.unexpected_exns <- t.unexpected_exns + 1;
      t.rejected <- t.rejected + 1;
      (status_bad_arguments, Wire.Unit, [])

(* The watchdog's execution budget for one call: the spec resource
   estimate (same cost model the router's WFQ uses) converted with the
   router's conservative cost->ns factor, scaled by the allowance
   factor, floored at [tdr_min_ns] so chatty zero-cost calls are never
   reset during normal queue drain. *)
let tdr_budget t (tdr : tdr) (c : Message.call) =
  let cost =
    match Plan.find t.plan c.Message.call_fn with
    | None -> 1.0
    | Some plan ->
        Wire.load_scalars t.tdr_scalars c.Message.call_args;
        Plan.call_cost plan t.tdr_scalars
  in
  Time.max tdr.tdr_min_ns
    (int_of_float (cost *. Plan.ns_per_cost *. tdr.tdr_factor))

(* Dispatch one handler.  Without a watchdog this is a plain call.  With
   one, the handler runs in a child process raced against a timer: if
   the budget elapses first the device is reset (unwedging the command
   processor, so the abandoned handler still unblocks and finishes
   harmlessly) and the call fails with [status_device_lost]. *)
let run_handler t entry handler (c : Message.call) =
  match t.tdr with
  | None -> (
      match handler entry.ve_ctx entry.ve_state c.Message.call_args with
      | result ->
          t.executed <- t.executed + 1;
          result
      | exception e -> classify_exn t e)
  | Some tdr -> (
      let iv = Ivar.create () in
      Engine.spawn t.engine (fun () ->
          match handler entry.ve_ctx entry.ve_state c.Message.call_args with
          | r -> Ivar.fill_if_empty iv (`Returned r)
          | exception e -> Ivar.fill_if_empty iv (`Raised e));
      Engine.spawn t.engine (fun () ->
          Engine.delay (tdr_budget t tdr c);
          if not (Ivar.is_filled iv) then begin
            let self = entry.ve_ctx.Ctx.ctx_vm in
            let reset () =
              t.tdr_resets <- t.tdr_resets + 1;
              tdr.tdr_reset ~vm_id:self
            in
            (match tdr.tdr_wedged_by with
            | None ->
                (* No blame query: every timeout is this call's fault. *)
                reset ();
                Ivar.fill_if_empty iv `Timed_out
            | Some wedged_by -> (
                match wedged_by () with
                | Some culprit when culprit = self ->
                    reset ();
                    Ivar.fill_if_empty iv `Timed_out
                | Some _ ->
                    (* Stuck behind another client's wedge: unwedge the
                       device and let this call finish on its own. *)
                    reset ()
                | None ->
                    (* Device not wedged — the call is slow, not hung
                       (e.g. draining a deep queue after a reset).  Let
                       it run; the simulated device always completes
                       un-wedged work. *)
                    ()))
          end);
      match Ivar.read iv with
      | `Returned result ->
          t.executed <- t.executed + 1;
          result
      | `Raised e -> classify_exn t e
      | `Timed_out ->
          t.device_lost <- t.device_lost + 1;
          (status_device_lost, Wire.Unit, []))

let obs_mark t entry (c : Message.call) m =
  match entry.ve_obs with
  | Some o -> Obs.vm_mark o ~seq:c.Message.call_seq m ~at:(Engine.now t.engine)
  | None -> ()

(* Run one call against a VM's state; no reply is sent. *)
let execute_call t entry (c : Message.call) =
  Engine.delay exec_overhead_ns;
  (match entry.ve_obs with
  | Some o when t.device_id >= 0 ->
      Obs.vm_set_device o ~seq:c.Message.call_seq ~device:t.device_id
  | _ -> ());
  obs_mark t entry c Obs.M_exec_start;
  let ((status, _, _) as result) =
    match Hashtbl.find t.handlers c.Message.call_fn with
    | exception Not_found ->
        t.rejected <- t.rejected + 1;
        (status_unknown_function, Wire.Unit, [])
    | handler -> run_handler t entry handler c
  in
  obs_mark t entry c Obs.M_exec_end;
  (match t.on_call with
  | Some hook -> hook ~vm_id:entry.ve_ctx.Ctx.ctx_vm ~status c
  | None -> ());
  result

(* Log a reply in the window, for idempotent replay of duplicate seqs
   (stub retransmissions, router requeues after a restart), and send
   it. *)
let send_reply entry seq (status, ret, outs) =
  let reply =
    { Message.reply_seq = seq; reply_status = status; reply_ret = ret; reply_outs = outs }
  in
  Seqwin.set entry.ve_window seq (Replied reply);
  Transport.send entry.ve_ep (Message.encode (Message.Reply reply))

(* Record a successful live call in the VM's migration log, with the
   virtual id an allocating call minted (which argument inspection
   cannot recover).  Replay ({!execute_direct}) never records. *)
let record_call t entry (c : Message.call) =
  match entry.ve_log with
  | None -> ()
  | Some log -> (
      match Plan.find_exn t.plan c.Message.call_fn with
      | exception Not_found -> ()
      | plan -> (
          match plan.Plan.cp_record with
          | Ava_spec.Ast.Object_alloc ->
              Migrate.observe ~allocated:(Ctx.last_fresh entry.ve_ctx) log plan c
          | _ -> Migrate.observe log plan c))

let run_call t entry (c : Message.call) =
  let ((status, _, _) as result) = execute_call t entry c in
  if status = status_ok then record_call t entry c;
  send_reply entry c.Message.call_seq result

(* --- transfer-cache resolution ----------------------------------------- *)

let rec has_cache_values = function
  | Wire.Blob_cached _ | Wire.Blob_ref _ -> true
  | Wire.List vs -> List.exists has_cache_values vs
  | Wire.Unit | Wire.I64 _ | Wire.F64 _ | Wire.Str _ | Wire.Blob _
  | Wire.Handle _ | Wire.Mapped_ref _ ->
      false

(* Rewrite cache values back to plain [Blob]s before dispatch, so
   handlers, the reply log and the migration record log only ever see
   resolved payloads.  [Blob_cached] verifies its digest before entering
   the store — a corrupt or forged announce must never poison it (the
   payload itself is still used verbatim: content addressing only
   guarantees store integrity, end-to-end payload integrity is the
   checksum envelope's job).  Arguments with no cache values come back
   as they are; missing refs raise [Cache_miss] with their digests. *)
exception Cache_miss of int64 list

let resolve_args store args =
  if not (List.exists has_cache_values args) then args
  else
    let missing = ref [] in
    let rec resolve v =
      match v with
      | Wire.Blob_cached { bc_digest; bc_data } ->
          if Int64.equal (Wire.digest bc_data) bc_digest then
            Store.insert store bc_digest bc_data
          else store.Store.st_rejected <- store.Store.st_rejected + 1;
          Wire.Blob bc_data
      | Wire.Blob_ref { br_digest; br_size } -> (
          match Store.find store br_digest with
          | Some data when Bytes.length data = br_size ->
              store.Store.st_hits <- store.Store.st_hits + 1;
              store.Store.st_saved_bytes <-
                store.Store.st_saved_bytes + br_size;
              Wire.Blob data
          | Some _ | None ->
              (* A size mismatch is treated as a miss: never hand a
                 handler a payload the guest didn't describe. *)
              store.Store.st_misses <- store.Store.st_misses + 1;
              missing := br_digest :: !missing;
              v)
      | Wire.List vs -> Wire.List (List.map resolve vs)
      | v -> v
    in
    let args' = List.map resolve args in
    if !missing = [] then args' else raise (Cache_miss (List.rev !missing))

(* --- SVA (mapped-buffer reference) resolution -------------------------- *)

let rec has_mapped_refs = function
  | Wire.Mapped_ref _ -> true
  | Wire.List vs -> List.exists has_mapped_refs vs
  | Wire.Unit | Wire.I64 _ | Wire.F64 _ | Wire.Str _ | Wire.Blob _
  | Wire.Handle _ | Wire.Blob_ref _ | Wire.Blob_cached _ ->
      false

(* Rewrite mapped-buffer refs back to plain [Blob]s through the VM's
   IOMMU, so handlers, the reply log and the migration record log only
   ever see resolved payloads (same invariant as the transfer cache).
   One scatter-gather descriptor chain covers every ref in the call:
   descriptor setup plus the per-page IOTLB walk are charged here, but
   no bandwidth — the payload streams later on the handler's ordinary
   DMA path, straight from the pinned guest pages.  Arguments with no
   mapped refs come back as they are; a ref that does not translate, or
   one from a VM with no SVA context, raises [Bad_mapped_ref]. *)
exception Bad_mapped_ref

let resolve_sva t entry args =
  if not (List.exists has_mapped_refs args) then args
  else
    match entry.ve_sva with
    | None -> raise Bad_mapped_ref
    | Some (iommu, dma) ->
        let segs = ref [] and failed = ref false in
        let rec resolve v =
          match v with
          | Wire.Mapped_ref { mr_iova; mr_size } -> (
              match Iommu.translate iommu ~iova:mr_iova ~size:mr_size with
              | Ok data ->
                  segs := mr_size :: !segs;
                  Wire.Blob data
              | Error _ ->
                  failed := true;
                  v)
          | Wire.List vs -> Wire.List (List.map resolve vs)
          | v -> v
        in
        let args' = List.map resolve args in
        if !failed then raise Bad_mapped_ref;
        let segs = List.rev !segs in
        Dma.transfer_sg ~stream:false
          ~per_page_ns:(Iommu.timing iommu).Ava_device.Timing.iotlb_walk_ns
          dma ~segs;
        t.sva_resolutions <- t.sva_resolutions + 1;
        t.sva_resolved_bytes <-
          t.sva_resolved_bytes + List.fold_left ( + ) 0 segs;
        args'

(* Execute the call at [ve_expected] if its payloads resolve; on a cache
   miss, NAK the missing digests and leave [ve_expected] in place — the
   stub's full-payload resend arrives under the same seq and goes through
   the normal in-order path.  [ve_expected] passes a call only once its
   reply is logged, so it is always the first seq this entry has not
   answered: a migration resumes the destination there ([hand_over]),
   and a call still executing here when it does runs again, and is
   recorded, at the destination.  A bad mapped-buffer ref is the guest's
   fault, not a transient miss: the call is consumed with
   [status_bad_arguments] (resending the same ref could never heal it,
   so a NAK here would loop forever).  The call is copied only when
   resolution rewrote its arguments (a call with no cache or
   mapped-buffer values, the common case, comes back unchanged). *)
let try_run t entry (c : Message.call) =
  match resolve_sva t entry (resolve_args entry.ve_store c.Message.call_args) with
  | args ->
      run_call t entry
        (if args == c.Message.call_args then c
         else { c with Message.call_args = args });
      entry.ve_expected <- c.Message.call_seq + 1;
      true
  | exception Bad_mapped_ref ->
      t.sva_rejected <- t.sva_rejected + 1;
      t.rejected <- t.rejected + 1;
      entry.ve_expected <- c.Message.call_seq + 1;
      send_reply entry c.Message.call_seq (status_bad_arguments, Wire.Unit, []);
      true
  | exception Cache_miss missing ->
      t.naks_sent <- t.naks_sent + 1;
      Transport.send entry.ve_ep
        (Message.encode
           (Message.Nak
              {
                nak_vm = entry.ve_ctx.Ctx.ctx_vm;
                nak_seq = c.Message.call_seq;
                nak_digests = missing;
              }));
      false

(* Drain consecutively parked/skipped seqs now that the gap closed.  A
   parked call that misses the store is dropped after its NAK — the full
   resend re-delivers it at [ve_expected]. *)
let rec advance t entry =
  let seq = entry.ve_expected in
  match Seqwin.get entry.ve_window seq with
  | Held c ->
      Seqwin.set entry.ve_window seq Empty;
      if try_run t entry c then advance t entry
  | Skipped ->
      entry.ve_expected <- seq + 1;
      advance t entry
  | Empty | Replied _ -> ()

(* A seq no stub sends: negative, or so far past the cursor that parking
   it would grow the window without bound.  Dropped and counted. *)
let out_of_window entry seq = seq < 0 || seq - entry.ve_expected >= Seqwin.max_span

(* Per-VM calls execute strictly in seq order.  Under fault injection a
   call can arrive late (retransmission) or twice (duplicate delivery);
   executing out of order would reorder argument updates against
   launches, so future seqs park in the window until the gap fills, and
   seqs already executed replay their logged reply without touching the
   silo. *)
let handle_call t entry (c : Message.call) =
  let seq = c.Message.call_seq in
  if out_of_window entry seq then t.rejected <- t.rejected + 1
  else if seq < entry.ve_expected then (
    (* Duplicate of an executed (or skipped) call: idempotent replay. *)
    match Seqwin.get entry.ve_window seq with
    | Replied r ->
        t.replayed <- t.replayed + 1;
        Transport.send entry.ve_ep (Message.encode (Message.Reply r))
    | Empty | Held _ | Skipped ->
        (* A router-skipped seq (the guest already holds its rejection
           reply) or one the window base passed: nothing to say. *)
        ())
  else begin
    Seqwin.extend entry.ve_window seq;
    if seq = entry.ve_expected then (if try_run t entry c then advance t entry)
    else Seqwin.set entry.ve_window seq (Held c)
  end

(* A parked call outranks a skip notice for its seq. *)
let handle_skip t entry seqs =
  List.iter
    (fun s ->
      if out_of_window entry s then t.rejected <- t.rejected + 1
      else if s >= entry.ve_expected then begin
        Seqwin.extend entry.ve_window s;
        match Seqwin.get entry.ve_window s with
        | Empty -> Seqwin.set entry.ve_window s Skipped
        | Held _ | Skipped | Replied _ -> ()
      end)
    seqs;
  advance t entry

(* Detach a VM: drop its entry — context, silo, seq window, content
   store, record log and SVA pairing — and tell its worker to exit at
   the next wakeup.  Migration away from this server must detach, or a
   later migration *back* would leave two workers racing for the same
   VM's messages (and [find_vm] finding a stale silo). *)
let detach_vm t ~vm_id =
  let e = entry_exn t "detach_vm" vm_id in
  e.ve_detached <- true;
  (* The worker keeps the entry until its next wakeup: empty the window
     now. *)
  Seqwin.clear e.ve_window;
  (* Unblock a worker parked while paused so it can observe the detach
     flag and exit. *)
  if Engine.parked e.ve_resume then Engine.wake e.ve_resume ();
  Hashtbl.remove t.vm_entries vm_id

(* Attach a VM: spawn its worker process draining its endpoint.  A
   leftover entry for the same VM (a previous residency the pool never
   detached) is superseded, never raced. *)
let attach_vm t ~vm_id ~ep =
  if Hashtbl.mem t.vm_entries vm_id then detach_vm t ~vm_id;
  let entry =
    {
      ve_ctx = Ctx.create ~vm_id;
      ve_state = t.make_state ~vm_id;
      ve_ep = ep;
      ve_paused = false;
      ve_resume = Engine.waitq ();
      ve_crashed = false;
      ve_detached = false;
      ve_expected = 0;
      ve_window = Seqwin.create ~empty:Empty ~resolved;
      ve_store = Store.create ~capacity:t.cache_capacity;
      ve_log = (if t.device_id >= 0 then Some (Migrate.create ()) else None);
      ve_sva = None;
      ve_obs = Option.map (fun o -> Obs.vm o ~vm:vm_id) t.obs;
    }
  in
  Hashtbl.replace t.vm_entries vm_id entry;
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        if entry.ve_detached then ()
        else begin
          let data = Transport.recv ep in
          if entry.ve_paused && not entry.ve_detached then
            (* Migration in progress: stall new work until resumed. *)
            Engine.park entry.ve_resume;
          if entry.ve_detached then
            (* Superseded while blocked: anything still arriving on the
               old endpoint belongs to a flow the router already
               re-steered; drop it and exit. *)
            ()
          else begin
            if entry.ve_crashed then
              (* Server down: the message is lost; the stub's
                 retransmission (or the router's requeue on restart)
                 recovers it. *)
              t.lost_while_down <- t.lost_while_down + 1
            else
              (match Message.decode data with
              | Ok (Message.Call c) -> handle_call t entry c
              | Ok (Message.Batch calls) ->
                  List.iter (handle_call t entry) calls
              | Ok (Message.Skip s) -> handle_skip t entry s.Message.skip_seqs
              | Ok (Message.Reply _) | Ok (Message.Upcall _)
              | Ok (Message.Nak _)
              | Error _ ->
                  t.rejected <- t.rejected + 1);
            loop ()
          end
        end
      in
      loop ());
  entry

(* Crash/restart model: while crashed the worker stays alive but every
   incoming message is lost, like an API server that died and whose
   socket drops traffic until it is restarted.  Silo state and the reply
   log survive (device state outlives a front-end process bounce);
   in-flight calls are the losses, recovered by stub retransmission and
   {!Router.requeue_in_flight}. *)
let crash t ~vm_id = (entry_exn t "crash" vm_id).ve_crashed <- true

let restart t ~vm_id =
  let e = entry_exn t "restart" vm_id in
  if e.ve_crashed then begin
    e.ve_crashed <- false;
    t.restarts <- t.restarts + 1;
    (* The content store is front-end process memory: a restart loses
       it.  Stale refs from the guest then miss and NAK. *)
    Store.clear e.ve_store
  end

let is_crashed t ~vm_id = (entry_exn t "is_crashed" vm_id).ve_crashed

(* The VM's reply log: the window's replied cells, in seq order. *)
let export_replies t ~vm_id =
  Seqwin.fold (entry_exn t "export_replies" vm_id).ve_window
    (fun seq c acc -> match c with Replied r -> (seq, r) :: acc | _ -> acc)
    []

let recorder t ~vm_id = Option.bind (find_vm t vm_id) (fun e -> e.ve_log)

(* Move the VM's record log into its entry on [into]: from here on the
   destination records and the source does not.  Migration calls this
   once the source snapshot is taken, before replaying the log. *)
let hand_over_log t ~into ~vm_id =
  let src = entry_exn t "hand_over_log" vm_id in
  match src.ve_log with
  | None -> invalid_arg "Server.hand_over_log: no record log"
  | Some _ as log ->
      src.ve_log <- None;
      (entry_exn into "hand_over_log" vm_id).ve_log <- log

(* The rest of a migration's server-side state: resume the destination's
   in-order cursor at the source's and carry the replied cells over.
   Replayed log entries run with seq 0 (outside the live window), so the
   destination must be told where the guest's live seq stream resumes
   or every steered call would park as a future seq.  The source's
   cursor is the first seq it has not answered ([try_run]), so every
   seq below it is a duplicate only the reply log can answer: without
   it, a reply lost on the guest link just before the move is
   unhealable.  The destination's window becomes the source's, base to
   cursor: a seq the destination already answered keeps its reply, and
   one neither answered is [Skipped] (nothing to replay). *)
let hand_over t ~into ~vm_id =
  let src = entry_exn t "hand_over" vm_id and dst = entry_exn into "hand_over" vm_id in
  let cursor = src.ve_expected in
  let carried seq =
    match (Seqwin.get dst.ve_window seq, Seqwin.get src.ve_window seq) with
    | (Replied _ as c), _ | _, (Replied _ as c) -> c
    | _ -> Skipped
  in
  Seqwin.rebuild dst.ve_window ~base:(Seqwin.base src.ve_window) ~top:cursor carried;
  dst.ve_expected <- cursor

(* Suspend/resume a VM's worker (used by migration §4.3). *)
let pause_vm t ~vm_id = (entry_exn t "pause_vm" vm_id).ve_paused <- true

let resume_vm t ~vm_id =
  let e = entry_exn t "resume_vm" vm_id in
  e.ve_paused <- false;
  if Engine.parked e.ve_resume then Engine.wake e.ve_resume ()

let vm_ctx t ~vm_id = Option.map (fun e -> e.ve_ctx) (find_vm t vm_id)
let vm_state t ~vm_id = Option.map (fun e -> e.ve_state) (find_vm t vm_id)

(* Invoke a guest callback: send an upcall message back over the VM's
   endpoint (spec [callback] parameters). *)
let upcall t ~vm_id ~cb ~args =
  Transport.send (entry_exn t "upcall" vm_id).ve_ep
    (Message.encode (Message.Upcall { up_vm = vm_id; up_cb = cb; up_args = args }))

(* Execute a call directly against a VM's state, bypassing transport and
   the record log — used by migration replay.  Must run inside a
   process. *)
let execute_direct t ~vm_id (c : Message.call) =
  execute_call t (entry_exn t "execute_direct" vm_id) c
