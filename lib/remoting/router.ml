(* The invocation router: AvA's hypervisor-level interposition point.

   Every forwarded call crosses the router, which (a) *verifies* it — the
   function must exist in the spec and carry the right argument count —
   (b) enforces per-VM policy: token-bucket rate limits and windowed
   device-time quotas, and (c) schedules competing VMs with weighted fair
   queueing on the spec's resource estimates (§4.3).  Replies flow back
   through per-VM egress processes with accounting.

   This is exactly what vCUDA-style user-space RPC gives up: remove the
   router (connect guest directly to server) and interposition is gone. *)

module Plan = Ava_codegen.Plan
module Transport = Ava_transport.Transport
module Obs = Ava_obs.Obs

open Ava_sim
open Ava_hv

(* One message on its way to the server: the WFQ item while queued, then
   the in-flight ledger entry until every seq is answered.  Requeued
   wholesale if the server restarts (already-executed seqs are
   deduplicated there). *)
type fwd = {
  fw_conn : vm_conn;
  fw_data : bytes;
  fw_cost : float;
  mutable fw_seqs : int list;  (** seqs still awaiting replies *)
}

and vm_conn = {
  rc_vm : Vm.t;
  mutable rc_owner : t;
      (** router currently owning this flow.  Normally the router that
          attached it; a cross-host migration re-points it (see
          {!transfer_flow}), and the ingress process re-reads it each
          iteration so the guest's live connection follows the VM. *)
  guest_side : Transport.endpoint;  (** router's endpoint facing the guest *)
  mutable server_side : Transport.endpoint;
      (** router's endpoint facing the VM's current backend server *)
  mutable rc_backend : int;  (** backend currently steering this VM *)
  mutable rc_obs : Obs.vm option;
      (** this VM's spans in the owning router's registry *)
  rc_cursor : Message.cursor;  (** ingress's frame cursor, reused *)
  rc_idle : fwd;  (** fills the in-flight ledger's vacant cells *)
  mutable rc_costs : float array;
      (** ingress scratch: each batch member's cost, negative when it
          was rejected *)
  mutable skipped_seqs : int list;
      (** seqs policed away, re-sent to each new backend by
          {!transfer_flow} *)
  rejected_status : (int, int) Hashtbl.t;
      (** rejection status by seq, for every call policed away or
          quarantined.  A retransmit of such a seq must get the same
          rejection replayed, never be forwarded: the backend already
          consumed the Skip and advanced past the seq, so a forwarded
          retransmit would read there as a pre-cursor duplicate with no
          reply-log entry — unanswerable, parked in the in-flight
          ledger forever.  (Campaign-found: a breaker half-open probe
          forwarding a retransmit of a seq quarantined moments earlier;
          see test/corpus/shrunk-seq-ledger-quarantine-retransmit.trace.) *)
  mutable bucket : Policy.Token_bucket.t option;
  mutable quota : Policy.Quota.t option;
  mutable in_flight : fwd array;
  mutable in_flight_n : int;
      (** forwarded messages still owing replies: the first
          [in_flight_n] cells, oldest first *)
  mutable breaker : Policy.Breaker.t option;
  mutable fault_statuses : int list;
      (** reply statuses fed to the breaker as failures *)
  mutable fault_replies : int;  (** fault-status replies seen *)
}

(* One dispatch lane: each backend server gets its own WFQ and its own
   pacing dispatcher, so a pool of devices schedules independently
   (lifting the single-popper limit of [Policy.Wfq.pop]). *)
and backend = {
  bs_id : int;
  bs_wfq : fwd Policy.Wfq.t;
  mutable bs_started : bool;  (** dispatcher process spawned *)
}

and t = {
  engine : Engine.t;
  virt : Ava_device.Timing.virt;
  plan : Plan.t;
  mutable backends : (int * backend) list;
  mutable conns : (int * vm_conn) list;
  mutable forwarded : int;
  mutable rejected : int;
  mutable requeued : int;
  mutable quarantined : int;
      (** calls rejected at admission by an open breaker *)
  mutable resteered : int;  (** VMs live-moved between backends *)
  mutable paced_ns : Time.t;
  obs : Obs.t option;
}

(* Conservative conversion from abstract cost units (work items / bytes)
   to estimated device nanoseconds: deliberately an under-estimate so
   pacing never outruns the real device. *)
let pacing_ns_of_cost cost =
  Stdlib.min (Time.us 500) (int_of_float (cost *. 0.02))

let make_backend id = { bs_id = id; bs_wfq = Policy.Wfq.create (); bs_started = false }

let create ?obs engine ~virt ~plan =
  Wire.intern_plan plan;
  {
    engine;
    virt;
    plan;
    backends = [ (0, make_backend 0) ];
    conns = [];
    forwarded = 0;
    rejected = 0;
    requeued = 0;
    quarantined = 0;
    resteered = 0;
    paced_ns = 0;
    obs;
  }

let backend_exn t id =
  match List.assoc id t.backends with
  | b -> b
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Router: unknown backend %d" id)

let add_backend t ~id =
  if List.mem_assoc id t.backends then
    invalid_arg (Printf.sprintf "Router.add_backend: backend %d exists" id);
  t.backends <- t.backends @ [ (id, make_backend id) ]

let forwarded t = t.forwarded
let rejected t = t.rejected
let requeued t = t.requeued
let quarantined t = t.quarantined
let resteered t = t.resteered

let find_conn t vm_id = List.assoc_opt vm_id t.conns

(* --- in-flight ledger --------------------------------------------------------- *)

(* An array that grows by doubling and is otherwise updated in place:
   dispatch and replies copy no list. *)
let add_in_flight conn fw =
  if conn.in_flight_n = Array.length conn.in_flight then
    conn.in_flight <-
      Array.append conn.in_flight
        (Array.make (Stdlib.max 4 conn.in_flight_n) conn.rc_idle);
  conn.in_flight.(conn.in_flight_n) <- fw;
  conn.in_flight_n <- conn.in_flight_n + 1

(* Keep the in-flight entries still owing replies, in order; vacated
   cells get the idle entry, so they pin no frame. *)
let compact_in_flight conn =
  let n = conn.in_flight_n in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let fw = conn.in_flight.(i) in
    if fw.fw_seqs <> [] then begin
      conn.in_flight.(!j) <- fw;
      incr j
    end
  done;
  Array.fill conn.in_flight !j (n - !j) conn.rc_idle;
  conn.in_flight_n <- !j

(* A reply flowed back: release its seq from every in-flight entry
   holding it, dropping entries left with none. *)
let mark_replied conn seq =
  let emptied = ref false in
  for i = 0 to conn.in_flight_n - 1 do
    let fw = conn.in_flight.(i) in
    if List.mem seq fw.fw_seqs then begin
      fw.fw_seqs <- List.filter (fun s -> s <> seq) fw.fw_seqs;
      if fw.fw_seqs = [] then emptied := true
    end
  done;
  if !emptied then compact_in_flight conn

let fold_in_flight conn f acc =
  let acc = ref acc in
  for i = 0 to conn.in_flight_n - 1 do
    acc := f !acc conn.in_flight.(i)
  done;
  !acc

(* --- hops --------------------------------------------------------------------- *)

let reject_call conn seq status =
  Hashtbl.replace conn.rejected_status seq status;
  let reply =
    Message.Reply
      { reply_seq = seq; reply_status = status; reply_ret = Wire.Unit; reply_outs = [] }
  in
  Transport.send conn.guest_side (Message.encode reply)

(* Tell the server the named seqs were policed away and will never
   arrive, so its in-order execution can advance past them.  Skips are
   remembered so a later re-steer can re-send them to the new backend
   (whose skip set starts empty). *)
let send_skip conn seqs =
  if seqs <> [] then begin
    conn.skipped_seqs <- seqs @ conn.skipped_seqs;
    Transport.send conn.server_side
      (Message.encode
         (Message.Skip { skip_vm = Vm.id conn.rc_vm; skip_seqs = seqs }))
  end

let dispatcher_name b =
  if b.bs_id = 0 then "ava-router-dispatch"
  else Printf.sprintf "ava-router-dispatch-b%d" b.bs_id

let rec mark_dispatched o now = function
  | [] -> ()
  | seq :: seqs ->
      Obs.vm_mark o ~seq Obs.M_dispatched ~at:now;
      mark_dispatched o now seqs

let start_dispatcher t b =
  if not b.bs_started then begin
    b.bs_started <- true;
    Engine.spawn t.engine ~name:(dispatcher_name b) (fun () ->
        let rec loop () =
          let fw = Policy.Wfq.pop_payload b.bs_wfq in
          let conn = fw.fw_conn in
          t.forwarded <- t.forwarded + 1;
          if fw.fw_seqs <> [] then add_in_flight conn fw;
          (match conn.rc_obs with
          | Some o -> mark_dispatched o (Engine.now t.engine) fw.fw_seqs
          | None -> ());
          Transport.send conn.server_side fw.fw_data;
          (* Schedule at call granularity (§4.3): pace dispatch by the
             call's estimated device time.  The estimate is a strict
             under-estimate of real execution, so an uncontended guest is
             never slowed; under contention the pacing makes dequeue
             order — and therefore device shares — follow WFQ weights. *)
          let pace = pacing_ns_of_cost fw.fw_cost in
          t.paced_ns <- t.paced_ns + pace;
          Engine.delay pace;
          loop ()
        in
        loop ())
  end

(* Egress: server -> guest for one (conn, endpoint) pair, with byte
   accounting and in-flight bookkeeping (a reply releases its seq from
   the requeue ledger).  Factored out of [attach_vm] because a re-steer
   spawns a fresh egress on the new backend's endpoint; the old one
   keeps draining residual replies from the previous server, which
   [mark_replied] dedups harmlessly.  Each egress reads replies with
   its own cursor: only the seq and status, the rest checked in place
   and forwarded untouched. *)
let spawn_egress t conn ep =
  let vm = conn.rc_vm in
  let cu = Message.cursor () in
  Engine.spawn t.engine ~name:(Printf.sprintf "ava-router-out-vm%d" (Vm.id vm))
    (fun () ->
      let rec loop () =
        let data = Transport.recv ep in
        Vm.charge_bytes vm (Bytes.length data);
        (match Message.read cu data with
        | Ok Message.K_reply ->
            mark_replied conn (Message.reply_seq cu);
            (* Feed the reply into this VM's error budget: fault
               statuses count against it; any other reply proves the
               service path healthy. *)
            let faulty = List.mem (Message.reply_status cu) conn.fault_statuses in
            if faulty then conn.fault_replies <- conn.fault_replies + 1;
            (match conn.breaker with
            | Some b ->
                if faulty then Policy.Breaker.record_failure b
                else Policy.Breaker.record_success b
            | None -> ())
        | _ -> ());
        Transport.send conn.guest_side data;
        loop ()
      in
      loop ())

(* --- ingress ------------------------------------------------------------------ *)

(* Ingress stamp: ends the guest->router transport phase for a call
   (rejected ones included — their spans then close on the rejection
   reply). *)
let mark_in t conn seq =
  match conn.rc_obs with
  | Some o -> Obs.vm_mark o ~seq Obs.M_router_in ~at:(Engine.now t.engine)
  | None -> ()

(* Push into whichever backend currently steers this VM.  Re-read the
   owner: a policing stall can span a cross-router transfer, and the
   push must land in the backend table of whichever router owns the VM
   now. *)
let push_wfq conn fw =
  let b = backend_exn conn.rc_owner conn.rc_backend in
  Policy.Wfq.push b.bs_wfq ~flow_id:(Vm.id conn.rc_vm) ~cost:fw.fw_cost fw

let rejected_cost = -1.0

let reject_policed t conn seq status =
  t.rejected <- t.rejected + 1;
  reject_call conn seq status;
  rejected_cost

(* Verify and cost member [i] of the frame under the cursor, or reject
   it (a negative cost).  Verification: the call must name a spec'd
   function and carry exactly the marshalled argument count the plan
   prescribes.  Policing happens per contained call so batching cannot
   dodge rate limits or quotas. *)
let police t conn cu i =
  let seq = Message.seq cu i in
  match Plan.find_exn t.plan (Message.fn cu i) with
  | exception Not_found -> reject_policed t conn seq Server.status_unknown_function
  | plan when Message.arity cu i <> plan.Plan.cp_arity ->
      reject_policed t conn seq Server.status_bad_arguments
  | plan ->
      let vm = conn.rc_vm in
      Vm.charge_call vm;
      (match conn.bucket with
      | Some b -> Policy.Token_bucket.take b 1.0
      | None -> ());
      let cost = Plan.call_cost plan (Message.scalars cu i) in
      Vm.charge_device_time vm (int_of_float cost);
      (match conn.quota with
      | Some q -> Policy.Quota.charge q cost
      | None -> ());
      cost

(* Whether the router admitted [seq] and has not seen it answered: a
   copy is queued in the WFQ or in flight. *)
let outstanding conn seq =
  let holds fw = List.mem seq fw.fw_seqs in
  fold_in_flight conn (fun found fw -> found || holds fw) false
  || Policy.Wfq.exists
       (backend_exn conn.rc_owner conn.rc_backend).bs_wfq
       ~flow_id:(Vm.id conn.rc_vm) holds

(* Circuit-breaker admission, then policing.  While this VM is
   quarantined its calls are rejected outright with a distinct status —
   they never reach the WFQ, so other VMs' service is unperturbed.  A
   copy of an outstanding call (a retransmission, or the full resend
   after a cache NAK) is that call, already admitted: the breaker does
   not judge it again.  Rejecting it would answer the guest for a call
   the router still owes, and its Skip would move the server past the
   copies it holds, which then never get a reply.  (Campaign-found: a
   NAK resend quarantined while its NAK'd copies sat in the in-flight
   ledger; see
   test/corpus/shrunk-seq-ledger-quarantine-nak-resend.trace.) *)
let admit_and_police t conn cu i =
  let seq = Message.seq cu i in
  match Hashtbl.find conn.rejected_status seq with
  | status ->
      (* Retransmit of a seq this router already rejected (the guest's
         copy of the rejection was lost): replay the same verdict.
         Forwarding instead would contradict the Skip the backend
         consumed for this seq. *)
      reject_call conn seq status;
      rejected_cost
  | exception Not_found -> (
      match conn.breaker with
      | Some b
        when (not (outstanding conn seq)) && not (Policy.Breaker.admit b) ->
          t.quarantined <- t.quarantined + 1;
          reject_call conn seq Server.status_vm_quarantined;
          rejected_cost
      | _ -> police t conn cu i)

let ingress_call t conn data =
  let cu = conn.rc_cursor in
  let seq = Message.seq cu 0 in
  mark_in t conn seq;
  let cost = admit_and_police t conn cu 0 in
  if cost < 0.0 then send_skip conn [ seq ]
  else push_wfq conn { fw_conn = conn; fw_data = data; fw_cost = cost; fw_seqs = [ seq ] }

(* Member seqs of the batch under the cursor whose cost satisfies [p],
   in member order. *)
let[@tail_mod_cons] rec batch_seqs conn p i n =
  if i = n then []
  else if p conn.rc_costs.(i) then
    Message.seq conn.rc_cursor i :: batch_seqs conn p (i + 1) n
  else batch_seqs conn p (i + 1) n

let is_rejected c = c < 0.0
let is_accepted c = c >= 0.0

let ingress_batch t conn data =
  let cu = conn.rc_cursor in
  let n = Message.members cu in
  for i = 0 to n - 1 do
    mark_in t conn (Message.seq cu i)
  done;
  (* Police per contained call; every member is answered: verified
     members are forwarded (and were charged), rejected members got
     rejection replies above and their seqs are skipped at the server.
     Never drop a verified, already-charged call. *)
  if Array.length conn.rc_costs < n then conn.rc_costs <- Array.make n 0.0;
  for i = 0 to n - 1 do
    conn.rc_costs.(i) <- admit_and_police t conn cu i
  done;
  let rejected_seqs = batch_seqs conn is_rejected 0 n in
  send_skip conn rejected_seqs;
  let cost = ref 0.0 and accepted = ref 0 in
  for i = 0 to n - 1 do
    if is_accepted conn.rc_costs.(i) then begin
      cost := !cost +. conn.rc_costs.(i);
      incr accepted
    end
  done;
  if !accepted > 0 then begin
    let data =
      if rejected_seqs = [] then data
      else
        (* Re-frame the accepted members from their original sub-frame
           bytes. *)
        let frames =
          List.filter_map
            (fun i ->
              if is_accepted conn.rc_costs.(i) then
                Some (Bytes.sub data (Message.member_off cu i) (Message.member_len cu i))
              else None)
            (List.init n Fun.id)
        in
        match frames with [ frame ] -> frame | frames -> Message.batch_of_frames frames
    in
    push_wfq conn
      { fw_conn = conn; fw_data = data; fw_cost = !cost;
        fw_seqs = batch_seqs conn is_accepted 0 n }
  end

(* Ingress: guest -> verify -> police -> WFQ.  Re-read the owning router
   for every message: a cross-host migration re-points [rc_owner], and
   from then on this VM's ingress verifies, polices and enqueues against
   the destination router without respawning the process.  Policing
   reads headers and scalars only, through the cursor; the payload
   bytes are forwarded as they arrived. *)
let ingress conn data =
  let t = conn.rc_owner in
  Engine.delay t.virt.Ava_device.Timing.router_check_ns;
  match Message.read conn.rc_cursor data with
  | Error _ | Ok (Message.K_reply | Message.K_upcall | Message.K_skip | Message.K_nak) ->
      (* Nak is server-to-guest only; a guest sending one is bogus. *)
      t.rejected <- t.rejected + 1
  | Ok Message.K_call ->
      Vm.charge_bytes conn.rc_vm (Bytes.length data);
      ingress_call t conn data
  | Ok Message.K_batch ->
      Vm.charge_bytes conn.rc_vm (Bytes.length data);
      ingress_batch t conn data

let obs_handle t vm = Option.map (fun o -> Obs.vm o ~vm:(Vm.id vm)) t.obs

(* Attach one VM.  [guest_side]/[server_side] are the router's ends of
   the guest and server transports.  [backend] names the dispatch lane
   (pool device) the VM starts on.  Policy knobs:
   - [rate_per_s]/[burst]: API-call rate limit,
   - [weight]: WFQ share,
   - [quota_cost]/[quota_window]: device-time budget per window. *)
let attach_vm ?rate_per_s ?(burst = 32.0) ?(weight = 1.0) ?quota_cost
    ?(quota_window = Time.ms 100) ?breaker
    ?(breaker_statuses = [ Server.status_device_lost ]) ?(backend = 0) t vm
    ~guest_side ~server_side =
  let bucket =
    Option.map
      (fun r -> Policy.Token_bucket.create t.engine ~rate_per_s:r ~burst)
      rate_per_s
  and quota =
    Option.map
      (fun budget -> Policy.Quota.create t.engine ~window_ns:quota_window ~budget)
      quota_cost
  and breaker = Option.map (Policy.Breaker.create t.engine) breaker
  and rc_cursor = Message.cursor ()
  and rc_obs = obs_handle t vm
  and rejected_status = Hashtbl.create 16 in
  let rec conn =
    {
      rc_vm = vm;
      rc_owner = t;
      guest_side;
      server_side;
      rc_backend = backend;
      rc_obs;
      rc_cursor;
      rc_idle = idle;
      rc_costs = [||];
      skipped_seqs = [];
      rejected_status;
      bucket;
      quota;
      in_flight = [||];
      in_flight_n = 0;
      breaker;
      fault_statuses = breaker_statuses;
      fault_replies = 0;
    }
  and idle = { fw_conn = conn; fw_data = Bytes.empty; fw_cost = 0.0; fw_seqs = [] } in
  t.conns <- (Vm.id vm, conn) :: t.conns;
  let b = backend_exn t backend in
  Policy.Wfq.add_flow b.bs_wfq ~flow_id:(Vm.id vm) ~weight;
  start_dispatcher t b;
  Engine.spawn t.engine ~name:(Printf.sprintf "ava-router-in-vm%d" (Vm.id vm))
    (fun () ->
      let rec loop () =
        ingress conn (Transport.recv guest_side);
        loop ()
      in
      loop ());
  spawn_egress t conn server_side;
  conn

(* Administration interface (§4.3): adjust policies at runtime. *)

let set_rate_limit t ~vm_id ~rate_per_s ~burst =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.set_rate_limit: unknown vm"
  | Some conn ->
      conn.bucket <-
        Some (Policy.Token_bucket.create t.engine ~rate_per_s ~burst)

let clear_rate_limit t ~vm_id =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.clear_rate_limit: unknown vm"
  | Some conn -> conn.bucket <- None

let set_weight t ~vm_id ~weight =
  match find_conn t vm_id with
  | None -> invalid_arg "Wfq.set_weight: unknown flow"
  | Some conn ->
      Policy.Wfq.set_weight
        (backend_exn t conn.rc_backend).bs_wfq
        ~flow_id:vm_id ~weight

let set_quota t ~vm_id ~budget ~window_ns =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.set_quota: unknown vm"
  | Some conn ->
      conn.quota <- Some (Policy.Quota.create t.engine ~window_ns ~budget)

let throttle_ns t ~vm_id =
  match find_conn t vm_id with
  | Some { bucket = Some b; _ } -> Policy.Token_bucket.throttle_ns b
  | _ -> 0

(* Circuit-breaker administration. *)

type breaker_info = {
  bi_state : Policy.Breaker.state;
  bi_trips : int;
  bi_rejections : int;
  bi_fault_replies : int;
}

let set_breaker t ~vm_id config =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.set_breaker: unknown vm"
  | Some conn ->
      conn.breaker <- Some (Policy.Breaker.create t.engine config)

let breaker_info t ~vm_id =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.breaker_info: unknown vm"
  | Some conn ->
      Option.map
        (fun b ->
          {
            bi_state = Policy.Breaker.state b;
            bi_trips = Policy.Breaker.trips b;
            bi_rejections = Policy.Breaker.rejections b;
            bi_fault_replies = conn.fault_replies;
          })
        conn.breaker

let clear_breaker t ~vm_id =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.clear_breaker: unknown vm"
  | Some conn -> (
      match conn.breaker with Some b -> Policy.Breaker.reset b | None -> ())

let breaker_trips t ~vm_id =
  match find_conn t vm_id with
  | Some { breaker = Some b; _ } -> Policy.Breaker.trips b
  | _ -> 0

let paced_ns t = t.paced_ns

(* Recovery after an API-server restart: every forwarded message still
   owing replies goes back through the WFQ and is re-sent.  Seqs the
   server did execute before crashing are answered from its reply log
   (idempotent replay), so wholesale requeue is safe. *)
let requeue_conn t conn ~vm_id =
  let wfq = (backend_exn t conn.rc_backend).bs_wfq in
  let msgs = Array.sub conn.in_flight 0 conn.in_flight_n (* oldest first *) in
  Array.fill conn.in_flight 0 conn.in_flight_n conn.rc_idle;
  conn.in_flight_n <- 0;
  Array.iter
    (fun fw ->
      t.requeued <- t.requeued + 1;
      Policy.Wfq.push wfq ~flow_id:vm_id ~cost:fw.fw_cost fw)
    msgs;
  Array.length msgs

let requeue_in_flight t ~vm_id =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.requeue_in_flight: unknown vm"
  | Some conn -> requeue_conn t conn ~vm_id

let in_flight_calls t ~vm_id =
  match find_conn t vm_id with
  | None -> 0
  | Some conn ->
      fold_in_flight conn (fun a fw -> a + List.length fw.fw_seqs) 0

let in_flight_seqs t ~vm_id =
  match find_conn t vm_id with
  | None -> []
  | Some conn ->
      List.sort Stdlib.compare
        (fold_in_flight conn (fun a fw -> List.rev_append fw.fw_seqs a) [])

(* {1 Multi-backend steering (device pool)} *)

(* Live flow move, the only way a flow changes backend: the VM's flow —
   WFQ backlog, in-flight calls, future ingress — moves onto [backend]
   of [dst], which is this router (a re-steer within one host) or
   another router on the same engine (a cross-host migration).  Across
   routers the whole connection moves: guest endpoint, in-flight
   ledger, skips, rejections and policy objects (bucket/quota/breaker,
   built on the shared engine); the live ingress process follows via
   [rc_owner].  In-flight calls are re-forwarded wholesale: the new
   server starts at the old one's cursor, so it answers the ones the
   old server answered from the carried reply log and executes the
   rest (at-least-once only for a call the old server had not
   answered, the same contract as the restart/requeue path).  Every
   remembered skip is re-sent so policed-away seqs cannot park the new
   in-order cursor; the server ignores those below it. *)
let transfer_flow t ~dst ~vm_id ~backend ~server_side =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.transfer_flow: unknown vm"
  | Some conn ->
      if t.engine != dst.engine then
        invalid_arg "Router.transfer_flow: routers on different engines";
      if not (List.mem_assoc backend dst.backends) then
        invalid_arg
          (Printf.sprintf "Router.transfer_flow: unknown backend %d" backend);
      if t != dst && List.mem_assoc vm_id dst.conns then
        invalid_arg "Router.transfer_flow: vm already on destination router";
      let src_b = backend_exn t conn.rc_backend in
      let dst_b = backend_exn dst backend in
      let weight = Policy.Wfq.flow_weight src_b.bs_wfq ~flow_id:vm_id in
      let queued = Policy.Wfq.remove_flow src_b.bs_wfq ~flow_id:vm_id in
      if t != dst then begin
        t.conns <- List.remove_assoc vm_id t.conns;
        dst.conns <- (vm_id, conn) :: dst.conns;
        conn.rc_owner <- dst;
        conn.rc_obs <- obs_handle dst conn.rc_vm;
        t.resteered <- t.resteered + 1
      end;
      conn.rc_backend <- backend;
      conn.server_side <- server_side;
      Policy.Wfq.add_flow dst_b.bs_wfq ~flow_id:vm_id ~weight;
      List.iter
        (fun (payload, cost) ->
          Policy.Wfq.push dst_b.bs_wfq ~flow_id:vm_id ~cost payload)
        queued;
      ignore (requeue_conn dst conn ~vm_id);
      let skips = List.sort_uniq Stdlib.compare conn.skipped_seqs in
      conn.skipped_seqs <- [];
      send_skip conn skips;
      start_dispatcher dst dst_b;
      spawn_egress dst conn server_side;
      dst.resteered <- dst.resteered + 1
