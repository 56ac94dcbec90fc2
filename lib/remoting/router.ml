(* The invocation router: AvA's hypervisor-level interposition point.

   Every forwarded call crosses the router, which (a) *verifies* it — the
   function must exist in the spec and carry the right argument count —
   (b) enforces per-VM policy: token-bucket rate limits and windowed
   device-time quotas, and (c) schedules competing VMs with weighted fair
   queueing on the spec's resource estimates (§4.3).  Replies flow back
   through per-VM egress processes with accounting.

   A per-VM seq window is the one record of a VM's calls: each seq is
   verified, policed, charged and queued once (see [admit]).

   This is exactly what vCUDA-style user-space RPC gives up: remove the
   router (connect guest directly to server) and interposition is gone. *)

module Plan = Ava_codegen.Plan
module Transport = Ava_transport.Transport
module Obs = Ava_obs.Obs

open Ava_sim
open Ava_hv

(* One frame on its way to the server: the WFQ item while queued, then
   in flight until its seqs are answered.  The window cells of the seqs
   it admitted point at it; a copy forwarded uncharged is held by none. *)
type fwd = {
  fw_conn : vm_conn;
  fw_data : bytes;
  fw_cost : float;
  fw_lo : int;
  fw_hi : int;  (** seqs this frame admitted lie in [fw_lo, fw_hi] *)
  mutable fw_sent : bool;  (** dispatched, not yet requeued *)
}

(* What the router knows about one seq of a VM. *)
and cell =
  | Unseen  (** never arrived: a hole the window base cannot pass *)
  | Policing  (** admitted by the frame being policed, not yet framed *)
  | Admitted of fwd  (** charged once; queued or in flight as [fwd] is *)
  | Answered
  | Rejected of int  (** policed away with this status *)

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
  mutable rc_backend : backend;  (** backend currently steering this VM *)
  mutable rc_flow : fwd Policy.Wfq.flow;  (** this VM's flow in [rc_backend] *)
  mutable rc_detached : bool;
      (** retired by {!detach_vm}: ingress drops what still arrives *)
  mutable rc_obs : Obs.vm option;
      (** this VM's spans in the owning router's registry *)
  rc_cursor : Message.cursor;  (** ingress's frame cursor, reused *)
  mutable rc_costs : float array;
      (** ingress scratch: each batch member's admission verdict *)
  rc_window : cell Seqwin.t;  (** the VM's seqs; [Unseen] outside it *)
  mutable bucket : Policy.Token_bucket.t option;
  mutable quota : Policy.Quota.t option;
  mutable breaker : Policy.Breaker.t option;
  fault_statuses : int list;
      (** reply statuses fed to the breaker as failures *)
  mutable fault_replies : int;  (** fault-status replies seen *)
}

(* One dispatch lane: each backend server gets its own WFQ and its own
   pacing dispatcher, so a pool of devices schedules independently
   (lifting the single-popper limit of [Policy.Wfq.pop_payload]). *)
and backend = {
  bs_wfq : fwd Policy.Wfq.t;
  mutable bs_started : bool;  (** dispatcher process spawned *)
}

and t = {
  engine : Engine.t;
  virt : Ava_device.Timing.virt;
  plan : Plan.t;
  backends : (int, backend) Hashtbl.t;
  conns : (int, vm_conn) Hashtbl.t;
  mutable forwarded : int;
  mutable rejected : int;
  mutable requeued : int;
  mutable quarantined : int;
      (** calls rejected at admission by an open breaker *)
  mutable dropped : int;
      (** frames dropped unanswered: copies of queued calls, seqs
          outside their VM's window, and a detached VM's frames *)
  mutable resteered : int;  (** VMs live-moved between backends *)
  mutable paced_ns : Time.t;
  obs : Obs.t option;
}

(* Cost units to estimated device nanoseconds, capped at 500 us. *)
let pacing_ns_of_cost cost =
  Stdlib.min (Time.us 500) (int_of_float (cost *. Plan.ns_per_cost))

let make_backend () = { bs_wfq = Policy.Wfq.create (); bs_started = false }

let create ?obs engine ~virt ~plan =
  Wire.intern_plan plan;
  let backends = Hashtbl.create 4 in
  Hashtbl.replace backends 0 (make_backend ());
  {
    engine;
    virt;
    plan;
    backends;
    conns = Hashtbl.create 16;
    forwarded = 0;
    rejected = 0;
    requeued = 0;
    quarantined = 0;
    dropped = 0;
    resteered = 0;
    paced_ns = 0;
    obs;
  }

let backend_exn t id =
  match Hashtbl.find t.backends id with
  | b -> b
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Router: unknown backend %d" id)

let add_backend t ~id =
  if Hashtbl.mem t.backends id then
    invalid_arg (Printf.sprintf "Router.add_backend: backend %d exists" id);
  Hashtbl.replace t.backends id (make_backend ())

let forwarded t = t.forwarded
let rejected t = t.rejected
let requeued t = t.requeued
let quarantined t = t.quarantined
let dropped t = t.dropped
let resteered t = t.resteered

let find_conn t vm_id = Hashtbl.find_opt t.conns vm_id
let attached t ~vm_id = Hashtbl.mem t.conns vm_id

(* --- seq window --------------------------------------------------------------- *)

let resolved = function
  | Answered | Rejected _ -> true
  | Unseen | Policing | Admitted _ -> false
let cell conn seq = Seqwin.get conn.rc_window seq
let set_cell conn seq c = Seqwin.set conn.rc_window seq c

(* A reply flowed back: its seq is answered, however many copies of it
   are still on their way, and the base may pass it now (see
   {!Seqwin}). *)
let mark_replied conn seq =
  match cell conn seq with
  | Policing | Admitted _ ->
      set_cell conn seq Answered;
      Seqwin.advance conn.rc_window
  | Unseen | Answered | Rejected _ -> ()

(* --- hops --------------------------------------------------------------------- *)

let reply_rejection conn seq status =
  let reply =
    Message.Reply
      { reply_seq = seq; reply_status = status; reply_ret = Wire.Unit; reply_outs = [] }
  in
  Transport.send conn.guest_side (Message.encode reply)

(* Tell the server the named seqs were policed away and will never
   arrive, so its in-order execution can advance past them.  Their
   [Rejected] cells let a later re-steer re-send them to the new backend
   (whose skip set starts empty). *)
let send_skip conn seqs =
  if seqs <> [] then
    Transport.send conn.server_side
      (Message.encode
         (Message.Skip { skip_vm = Vm.id conn.rc_vm; skip_seqs = seqs }))

(* Stamp dispatch on the seqs the frame admitted and still holds. *)
let mark_dispatched o now conn fw =
  for seq = fw.fw_lo to fw.fw_hi do
    match cell conn seq with
    | Admitted fw' when fw' == fw -> Obs.vm_mark o ~seq Obs.M_dispatched ~at:now
    | _ -> ()
  done

let start_dispatcher t b =
  if not b.bs_started then begin
    b.bs_started <- true;
    Engine.spawn t.engine (fun () ->
        let rec loop () =
          let fw = Policy.Wfq.pop_payload b.bs_wfq in
          let conn = fw.fw_conn in
          t.forwarded <- t.forwarded + 1;
          fw.fw_sent <- true;
          (match conn.rc_obs with
          | Some o -> mark_dispatched o (Engine.now t.engine) conn fw
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
   accounting; a reply marks its seq answered in the window.  Factored
   out of [attach_vm] because a re-steer spawns a fresh egress on the
   new backend's endpoint; the old one keeps draining residual replies
   from the previous server, which [mark_replied] dedups harmlessly.
   Each egress reads replies with its own cursor: only the seq and
   status, the rest checked in place and forwarded untouched. *)
let spawn_egress t conn ep =
  let vm = conn.rc_vm in
  let cu = Message.cursor () in
  Engine.spawn t.engine (fun () ->
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

(* Admission verdicts; any other verdict is a cost, and the call is
   forwarded. *)
let rejected_cost = -1.0  (* answered with a rejection, skipped at the server *)
let dropped_cost = -2.0  (* neither forwarded nor answered *)

let is_rejected c = c = rejected_cost
let is_accepted c = c >= 0.0

let reject conn seq status =
  set_cell conn seq (Rejected status);
  reply_rejection conn seq status;
  rejected_cost

let reject_policed t conn seq status =
  t.rejected <- t.rejected + 1;
  reject conn seq status

let drop t =
  t.dropped <- t.dropped + 1;
  dropped_cost

(* Push into whichever flow steers this VM now: a policing stall can
   span a re-steer or a cross-router transfer, which re-point
   [rc_backend] and [rc_flow], or a detach, which drops the frame. *)
let push_wfq t conn fw =
  if conn.rc_detached then ignore (drop t)
  else Policy.Wfq.push conn.rc_backend.bs_wfq conn.rc_flow ~cost:fw.fw_cost fw

(* Verify and cost member [i] of the frame under the cursor, or reject
   it.  Verification: the call must name a spec'd function and carry
   exactly the marshalled argument count the plan prescribes.  Policing
   happens per contained call so batching cannot dodge rate limits or
   quotas. *)
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

(* Admit member [i] once, by its seq's cell.  A new seq meets the
   circuit breaker, then policing: while this VM is quarantined its calls
   are rejected outright with a distinct status and never reach the WFQ.
   A later copy (a retransmission, or the full resend after a cache NAK)
   is that call, already charged:
   - of a queued call: dropped, the queued frame will answer it;
   - of an in-flight or answered call: forwarded at cost 0, so the
     server re-executes a NAK'd call or replays its reply log;
   - of a rejected call: its verdict replayed, never forwarded, which
     would contradict the Skip the backend consumed;
   - below the window base: dropped, as no reply log holds it. *)
let admit t conn cu i =
  let seq = Message.seq cu i in
  let w = conn.rc_window in
  if seq < Seqwin.base w || seq - Seqwin.base w >= Seqwin.max_span then drop t
  else
    match cell conn seq with
    | Unseen -> (
        Seqwin.extend w seq;
        set_cell conn seq Policing;
        match conn.breaker with
        | Some b when not (Policy.Breaker.admit b) ->
            t.quarantined <- t.quarantined + 1;
            reject conn seq Server.status_vm_quarantined
        | _ -> police t conn cu i)
    | Policing -> drop t
    | Admitted fw when not fw.fw_sent -> drop t
    | Admitted _ | Answered -> 0.0
    | Rejected status ->
        reply_rejection conn seq status;
        rejected_cost

(* Queue a frame; the seqs in [lo, hi] it admitted now point at it. *)
let forward t conn data cost ~lo ~hi =
  let fw =
    { fw_conn = conn; fw_data = data; fw_cost = cost; fw_lo = lo; fw_hi = hi;
      fw_sent = false }
  in
  for seq = lo to hi do
    match cell conn seq with
    | Policing -> set_cell conn seq (Admitted fw)
    | _ -> ()
  done;
  push_wfq t conn fw

(* Member seqs of the frame under the cursor whose verdict satisfies
   [p], in member order. *)
let[@tail_mod_cons] rec batch_seqs conn p i n =
  if i = n then []
  else if p conn.rc_costs.(i) then
    Message.seq conn.rc_cursor i :: batch_seqs conn p (i + 1) n
  else batch_seqs conn p (i + 1) n

(* Admit each call of the frame under the cursor (a lone call is a
   one-member frame) and forward the accepted ones as one frame.  Every
   new member is answered: accepted members are forwarded (and were
   charged once), rejected members got rejection replies and their seqs
   are skipped at the server.  Never drop a verified, already-charged
   call. *)
let ingress_frame t conn data =
  let cu = conn.rc_cursor in
  let n = Message.members cu in
  for i = 0 to n - 1 do
    mark_in t conn (Message.seq cu i)
  done;
  if Array.length conn.rc_costs < n then conn.rc_costs <- Array.make n 0.0;
  for i = 0 to n - 1 do
    conn.rc_costs.(i) <- admit t conn cu i
  done;
  send_skip conn (batch_seqs conn is_rejected 0 n);
  let cost = ref 0.0 and accepted = ref 0 in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    if is_accepted conn.rc_costs.(i) then begin
      cost := !cost +. conn.rc_costs.(i);
      incr accepted;
      lo := Stdlib.min !lo (Message.seq cu i);
      hi := Stdlib.max !hi (Message.seq cu i)
    end
  done;
  if !accepted > 0 then begin
    let data =
      if !accepted = n then data
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
    forward t conn data !cost ~lo:!lo ~hi:!hi
  end

(* A call frame reaching a detached VM: each member still counts as a
   call its guest issued (the VM record outlives the retire), but the
   frame is dropped, never verified, policed or queued. *)
let drop_detached t conn =
  for _ = 1 to Message.members conn.rc_cursor do
    Vm.charge_call conn.rc_vm
  done;
  ignore (drop t)

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
  | Ok (Message.K_call | Message.K_batch) ->
      Vm.charge_bytes conn.rc_vm (Bytes.length data);
      if conn.rc_detached then drop_detached t conn else ingress_frame t conn data

let obs_handle t vm = Option.map (fun o -> Obs.vm o ~vm:(Vm.id vm)) t.obs

(* Attach one VM.  [guest_side]/[server_side] are the router's ends of
   the guest and server transports.  [backend] names the dispatch lane
   (pool device) the VM starts on.  Policy knobs:
   - [rate_per_s]/[burst]: API-call rate limit,
   - [weight]: WFQ share,
   - [quota_cost]/[quota_window]: device-time budget per window.
   Attaching an attached VM raises before anything changes. *)
let attach_vm ?rate_per_s ?(burst = 32.0) ?(weight = 1.0) ?quota_cost
    ?(quota_window = Time.ms 100) ?breaker
    ?(breaker_statuses = [ Server.status_device_lost ]) ?(backend = 0) t vm
    ~guest_side ~server_side =
  let vm_id = Vm.id vm in
  if Hashtbl.mem t.conns vm_id then
    invalid_arg (Printf.sprintf "Router.attach_vm: vm %d is attached" vm_id);
  let bucket =
    Option.map
      (fun r -> Policy.Token_bucket.create t.engine ~rate_per_s:r ~burst)
      rate_per_s
  and quota =
    Option.map
      (fun budget -> Policy.Quota.create t.engine ~window_ns:quota_window ~budget)
      quota_cost
  and breaker = Option.map (Policy.Breaker.create t.engine) breaker
  and b = backend_exn t backend in
  let conn =
    {
      rc_vm = vm;
      rc_owner = t;
      guest_side;
      server_side;
      rc_backend = b;
      rc_flow = Policy.Wfq.add_flow b.bs_wfq ~flow_id:vm_id ~weight;
      rc_detached = false;
      rc_obs = obs_handle t vm;
      rc_cursor = Message.cursor ();
      rc_costs = [||];
      rc_window = Seqwin.create ~empty:Unseen ~resolved;
      bucket;
      quota;
      breaker;
      fault_statuses = breaker_statuses;
      fault_replies = 0;
    }
  in
  Hashtbl.replace t.conns vm_id conn;
  start_dispatcher t b;
  Engine.spawn t.engine (fun () ->
      let rec loop () =
        ingress conn (Transport.recv guest_side);
        loop ()
      in
      loop ());
  spawn_egress t conn server_side;
  conn

(* Administration interface (§4.3): adjust policies at runtime. *)

let conn_exn t fn vm_id =
  match find_conn t vm_id with
  | Some conn -> conn
  | None -> invalid_arg ("Router." ^ fn ^ ": unknown vm")

let set_rate_limit t ~vm_id ~rate_per_s ~burst =
  (conn_exn t "set_rate_limit" vm_id).bucket <-
    Some (Policy.Token_bucket.create t.engine ~rate_per_s ~burst)

let clear_rate_limit t ~vm_id = (conn_exn t "clear_rate_limit" vm_id).bucket <- None

let set_weight t ~vm_id ~weight =
  let conn = conn_exn t "set_weight" vm_id in
  Policy.Wfq.set_weight conn.rc_backend.bs_wfq conn.rc_flow ~weight

let set_quota t ~vm_id ~budget ~window_ns =
  (conn_exn t "set_quota" vm_id).quota <-
    Some (Policy.Quota.create t.engine ~window_ns ~budget)

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
  (conn_exn t "set_breaker" vm_id).breaker <-
    Some (Policy.Breaker.create t.engine config)

let breaker_info t ~vm_id =
  let conn = conn_exn t "breaker_info" vm_id in
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
  Option.iter Policy.Breaker.reset (conn_exn t "clear_breaker" vm_id).breaker

let breaker_trips t ~vm_id =
  match find_conn t vm_id with
  | Some { breaker = Some b; _ } -> Policy.Breaker.trips b
  | _ -> 0

let paced_ns t = t.paced_ns

(* Recovery after an API-server restart: every forwarded frame still
   owing replies goes back through the WFQ and is re-sent, once, in the
   order of its lowest in-flight seq.  Seqs the server did execute
   before crashing are answered from its reply log (idempotent replay),
   so wholesale requeue is safe. *)
let requeue_conn t conn =
  let n = ref 0 in
  for seq = Seqwin.base conn.rc_window to Seqwin.top conn.rc_window - 1 do
    match cell conn seq with
    | Admitted fw when fw.fw_sent ->
        fw.fw_sent <- false;
        incr n;
        Policy.Wfq.push conn.rc_backend.bs_wfq conn.rc_flow ~cost:fw.fw_cost fw
    | _ -> ()
  done;
  t.requeued <- t.requeued + !n;
  !n

let requeue_in_flight t ~vm_id =
  requeue_conn t (conn_exn t "requeue_in_flight" vm_id)

(* The window's seqs in state [p], ascending. *)
let window_seqs conn p =
  Seqwin.fold conn.rc_window (fun seq c seqs -> if p c then seq :: seqs else seqs) []

let is_in_flight = function Admitted fw -> fw.fw_sent | _ -> false
let is_rejected_cell = function Rejected _ -> true | _ -> false

let in_flight_seqs t ~vm_id =
  match find_conn t vm_id with
  | None -> []
  | Some conn -> window_seqs conn is_in_flight

let in_flight_calls t ~vm_id = List.length (in_flight_seqs t ~vm_id)

let window t ~vm_id =
  match find_conn t vm_id with
  | None -> 0
  | Some conn -> Seqwin.top conn.rc_window - Seqwin.base conn.rc_window

(* {1 Multi-backend steering (device pool)} *)

(* Live flow move, the only way a flow changes backend: the VM's flow —
   WFQ backlog, in-flight calls, future ingress — moves onto [backend]
   of [dst], which is this router (a re-steer within one host) or
   another router on the same engine (a cross-host migration).  Across
   routers the whole connection moves: guest endpoint, seq window and
   policy objects (bucket/quota/breaker, built on the shared engine);
   the live ingress process follows via [rc_owner].  In-flight calls
   are re-forwarded wholesale: the new server starts at the old one's
   cursor, so it answers the ones the old server answered from the
   carried reply log and executes the rest (at-least-once only for a
   call the old server had not answered, the same contract as the
   restart/requeue path).  The window's rejected seqs are re-sent as
   one Skip so policed-away seqs cannot park the new in-order cursor;
   the server ignores those below it. *)
let transfer_flow t ~dst ~vm_id ~backend ~server_side =
  let conn = conn_exn t "transfer_flow" vm_id in
  if t.engine != dst.engine then
    invalid_arg "Router.transfer_flow: routers on different engines";
  let dst_b = backend_exn dst backend in
  if t != dst && Hashtbl.mem dst.conns vm_id then
    invalid_arg "Router.transfer_flow: vm already on destination router";
  let weight = Policy.Wfq.flow_weight conn.rc_flow in
  let queued = Policy.Wfq.remove_flow conn.rc_backend.bs_wfq conn.rc_flow in
  if t != dst then begin
    Hashtbl.remove t.conns vm_id;
    Hashtbl.replace dst.conns vm_id conn;
    conn.rc_owner <- dst;
    conn.rc_obs <- obs_handle dst conn.rc_vm;
    t.resteered <- t.resteered + 1
  end;
  conn.rc_backend <- dst_b;
  conn.rc_flow <- Policy.Wfq.add_flow dst_b.bs_wfq ~flow_id:vm_id ~weight;
  conn.server_side <- server_side;
  List.iter
    (fun (payload, cost) -> Policy.Wfq.push dst_b.bs_wfq conn.rc_flow ~cost payload)
    queued;
  ignore (requeue_conn dst conn);
  send_skip conn (window_seqs conn is_rejected_cell);
  start_dispatcher dst dst_b;
  spawn_egress dst conn server_side;
  dst.resteered <- dst.resteered + 1

(* Retire the VM from the router: its conn leaves [t.conns] and its flow
   its backend, the queued frames dropped with it, and the seq window,
   bucket, quota and breaker go.  The two processes parked on the VM's
   transports stay: ingress drops what still arrives ([drop_detached]),
   and egress forwards late replies untouched. *)
let detach_vm t ~vm_id =
  let conn = conn_exn t "detach_vm" vm_id in
  let queued = Policy.Wfq.remove_flow conn.rc_backend.bs_wfq conn.rc_flow in
  t.dropped <- t.dropped + List.length queued;
  Hashtbl.remove t.conns vm_id;
  conn.rc_detached <- true;
  conn.rc_obs <- None;
  (* A frame stalled in policing across the detach resumes through
     [admit] and is dropped at the push. *)
  Seqwin.clear conn.rc_window;
  conn.bucket <- None;
  conn.quota <- None;
  conn.breaker <- None
