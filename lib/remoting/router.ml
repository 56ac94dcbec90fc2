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

(* One message forwarded to the server whose replies are still owed;
   requeued wholesale if the server restarts (already-executed seqs are
   deduplicated there). *)
type in_flight = {
  if_data : bytes;
  if_cost : float;
  mutable if_seqs : int list;  (** seqs still awaiting replies *)
}

type vm_conn = {
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
  mutable contig_seq : int;
      (** highest seq such that every seq [<= contig_seq] has been seen
          at ingress; -1 until the first call.  Two campaign-found
          pitfalls shape this field.  Stub seqs start at 0, so
          initializing to 0 would make [next_seq] report 1 for a VM
          that has never sent traffic — migrating it then seeds the
          destination's in-order cursor one past the guest's first real
          seq and its first call parks forever.  And it must be the
          {e contiguous} high-water mark, not the max: transport delay
          can deliver seq [n+1] before seq [n], and a migration seeded
          off the max would start the destination past a call that is
          still on the wire — when it lands it reads as a pre-cursor
          duplicate with no reply-log entry, unanswerable forever. *)
  seen_ahead : (int, unit) Hashtbl.t;
      (** seqs observed at ingress beyond [contig_seq] (out-of-order
          arrivals), absorbed into it as the gaps fill *)
  mutable pending_seqs : int list;  (** seqs queued in the WFQ, unordered *)
  mutable policing_seq : int option;
      (** the seq past [mark_in] but still inside admission/policing
          (ingress is one sequential process, so at most one) —
          the ingress process can stall there for whole quota windows
          ([Policy.Quota.charge] sleeps until a window with room), and
          during the stall the call is in no other ledger: [mark_in]
          already advanced [contig_seq] over it, yet it reaches
          [pending_seqs] only when the charge completes.  [next_seq]
          must count these as outstanding, else a migration racing the
          stall seeds the destination cursor past the call and it (plus
          every retransmit, each re-stalled by the same quota) parks in
          the in-flight ledger forever.  (Campaign-found: quota
          clamped to a near-zero budget, then a live migrate; see
          test/corpus/shrunk-seq-ledger-quota-stall-migrate.trace.) *)
  mutable skipped_seqs : int list;
      (** seqs policed away whose Skip notice went to the current backend *)
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
  mutable in_flight : in_flight list;  (** newest first *)
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
  bs_wfq : (vm_conn * float * bytes * int list) Policy.Wfq.t;
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
  match List.assoc_opt id t.backends with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Router: unknown backend %d" id)

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

(* Verification: the call must name a spec'd function and carry exactly
   the marshalled argument count the plan prescribes. *)
let verify t (c : Message.call) =
  match Plan.find t.plan c.Message.call_fn with
  | None -> Error Server.status_unknown_function
  | Some plan ->
      if List.length c.Message.call_args <> List.length plan.Plan.cp_params
      then Error Server.status_bad_arguments
      else Ok plan

let reject_call conn (c : Message.call) status =
  Hashtbl.replace conn.rejected_status c.Message.call_seq status;
  let reply =
    Message.Reply
      {
        reply_seq = c.Message.call_seq;
        reply_status = status;
        reply_ret = Wire.Unit;
        reply_outs = [];
      }
  in
  Transport.send conn.guest_side (Message.encode reply)

(* Tell the server the named seqs were policed away and will never
   arrive, so its in-order execution can advance past them.  Skips are
   remembered so a later re-steer can forward the still-relevant ones
   to the new backend (whose skip set starts empty). *)
let send_skip conn seqs =
  if seqs <> [] then begin
    conn.skipped_seqs <- seqs @ conn.skipped_seqs;
    Transport.send conn.server_side
      (Message.encode
         (Message.Skip { skip_vm = Vm.id conn.rc_vm; skip_seqs = seqs }))
  end

(* A reply flowed back: release its seq from the in-flight ledger. *)
let mark_replied conn seq =
  conn.in_flight <-
    List.filter
      (fun m ->
        if List.mem seq m.if_seqs then
          m.if_seqs <- List.filter (fun s -> s <> seq) m.if_seqs;
        m.if_seqs <> [])
      conn.in_flight

let dispatcher_name b =
  if b.bs_id = 0 then "ava-router-dispatch"
  else Printf.sprintf "ava-router-dispatch-b%d" b.bs_id

let start_dispatcher t b =
  if not b.bs_started then begin
    b.bs_started <- true;
    Engine.spawn t.engine ~name:(dispatcher_name b) (fun () ->
        let rec loop () =
          let flow_id, (conn, cost, data, seqs) = Policy.Wfq.pop b.bs_wfq in
          t.forwarded <- t.forwarded + 1;
          if seqs <> [] then begin
            conn.pending_seqs <-
              List.filter (fun s -> not (List.mem s seqs)) conn.pending_seqs;
            conn.in_flight <-
              { if_data = data; if_cost = cost; if_seqs = seqs }
              :: conn.in_flight
          end;
          (match t.obs with
          | Some o ->
              let now = Engine.now t.engine in
              List.iter
                (fun seq ->
                  Obs.mark o ~vm:(Vm.id conn.rc_vm) ~seq Obs.M_dispatched
                    ~at:now)
                seqs
          | None -> ());
          Transport.send conn.server_side data;
          (* Schedule at call granularity (§4.3): pace dispatch by the
             call's estimated device time.  The estimate is a strict
             under-estimate of real execution, so an uncontended guest is
             never slowed; under contention the pacing makes dequeue
             order — and therefore device shares — follow WFQ weights. *)
          ignore flow_id;
          let pace = pacing_ns_of_cost cost in
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
   [mark_replied] dedups harmlessly. *)
let spawn_egress t conn ep =
  let vm = conn.rc_vm in
  Engine.spawn t.engine ~name:(Printf.sprintf "ava-router-out-vm%d" (Vm.id vm))
    (fun () ->
      let rec loop () =
        let data = Transport.recv ep in
        Vm.charge_bytes vm (Bytes.length data);
        (* Headers only: the reply's payloads go to the guest untouched. *)
        (match Message.peek data with
        | Ok (Message.Reply r, _) ->
            mark_replied conn r.Message.reply_seq;
            (* Feed the reply into this VM's error budget: fault
               statuses count against it; any other reply proves the
               service path healthy. *)
            let faulty =
              List.mem r.Message.reply_status conn.fault_statuses
            in
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
  let conn =
    {
      rc_vm = vm;
      rc_owner = t;
      guest_side;
      server_side;
      rc_backend = backend;
      contig_seq = -1;
      seen_ahead = Hashtbl.create 16;
      pending_seqs = [];
      policing_seq = None;
      skipped_seqs = [];
      rejected_status = Hashtbl.create 16;
      bucket =
        Option.map
          (fun r -> Policy.Token_bucket.create t.engine ~rate_per_s:r ~burst)
          rate_per_s;
      quota =
        Option.map
          (fun budget ->
            Policy.Quota.create t.engine ~window_ns:quota_window ~budget)
          quota_cost;
      in_flight = [];
      breaker = Option.map (Policy.Breaker.create t.engine) breaker;
      fault_statuses = breaker_statuses;
      fault_replies = 0;
    }
  in
  t.conns <- (Vm.id vm, conn) :: t.conns;
  let b = backend_exn t backend in
  Policy.Wfq.add_flow b.bs_wfq ~flow_id:(Vm.id vm) ~weight;
  start_dispatcher t b;
  (* Ingress: guest -> verify -> police -> WFQ. *)
  Engine.spawn t.engine ~name:(Printf.sprintf "ava-router-in-vm%d" (Vm.id vm))
    (fun () ->
      let rec loop () =
        let data = Transport.recv guest_side in
        (* Re-read the owning router each iteration: a cross-host
           migration re-points [rc_owner], and from then on this VM's
           ingress verifies, polices and enqueues against the
           destination router without respawning the process. *)
        let t = conn.rc_owner in
        Engine.delay t.virt.Ava_device.Timing.router_check_ns;
        (* Ingress stamp: ends the guest->router transport phase for
           every call in the message (rejected ones included — their
           spans then close on the rejection reply).  Also advances the
           high-water seq used by [next_seq] after a re-steer. *)
        let mark_in (c : Message.call) =
          let seq = c.Message.call_seq in
          if seq > conn.contig_seq then Hashtbl.replace conn.seen_ahead seq ();
          while Hashtbl.mem conn.seen_ahead (conn.contig_seq + 1) do
            Hashtbl.remove conn.seen_ahead (conn.contig_seq + 1);
            conn.contig_seq <- conn.contig_seq + 1
          done;
          match t.obs with
          | Some o ->
              Obs.mark o ~vm:(Vm.id vm) ~seq:c.Message.call_seq
                Obs.M_router_in ~at:(Engine.now t.engine)
          | None -> ()
        in
        (* Push into whichever backend currently steers this VM. *)
        let push_wfq ~cost data seqs =
          (* Re-read the owner: a policing stall above can span a
             cross-router transfer, and the push must land in the
             backend table of whichever router owns the VM now. *)
          let b = backend_exn conn.rc_owner conn.rc_backend in
          conn.pending_seqs <- seqs @ conn.pending_seqs;
          Policy.Wfq.push b.bs_wfq ~flow_id:(Vm.id vm) ~cost
            (conn, cost, data, seqs)
        in
        (* Verify and cost one call; policing happens per contained
           call so batching cannot dodge rate limits or quotas. *)
        let police (c : Message.call) =
          match verify t c with
          | Error status ->
              t.rejected <- t.rejected + 1;
              reject_call conn c status;
              None
          | Ok plan ->
              Vm.charge_call vm;
              let env =
                Plan.scalar_env plan ~to_int:Wire.to_int c.Message.call_args
              in
              (match conn.bucket with
              | Some b -> Policy.Token_bucket.take b 1.0
              | None -> ());
              let cost = Plan.call_cost plan ~env in
              Vm.charge_device_time vm (int_of_float cost);
              (match conn.quota with
              | Some q -> Policy.Quota.charge q cost
              | None -> ());
              Some cost
        in
        (* Circuit-breaker admission: while this VM is quarantined its
           calls are rejected outright with a distinct status — they
           never reach the WFQ, so other VMs' service is unperturbed. *)
        let admitted (c : Message.call) =
          match Hashtbl.find_opt conn.rejected_status c.Message.call_seq with
          | Some status ->
              (* Retransmit of a seq this router already rejected (the
                 guest's copy of the rejection was lost): replay the
                 same verdict.  Forwarding instead would contradict the
                 Skip the backend consumed for this seq. *)
              reject_call conn c status;
              None
          | None -> (
              match conn.breaker with
              | Some b when not (Policy.Breaker.admit b) ->
                  t.quarantined <- t.quarantined + 1;
                  reject_call conn c Server.status_vm_quarantined;
                  None
              | _ -> Some c)
        in
        let admit_and_police c =
          match admitted c with None -> None | Some c -> police c
        in
        (* Policing can stall (quota window, token bucket); keep the
           seq visible to [next_seq] for the whole stall. *)
        let admit_and_police c =
          conn.policing_seq <- Some c.Message.call_seq;
          let verdict = admit_and_police c in
          conn.policing_seq <- None;
          verdict
        in
        (* Policing reads headers and scalars only ([Message.peek]); the
           payload bytes are forwarded as they arrived. *)
        (match Message.peek data with
        | Error _ -> t.rejected <- t.rejected + 1
        | Ok ((Message.Reply _ | Message.Upcall _ | Message.Skip _
              | Message.Nak _), _) ->
            (* Nak is server-to-guest only; a guest sending one is bogus. *)
            t.rejected <- t.rejected + 1
        | Ok (Message.Call c, _) -> (
            Vm.charge_bytes vm (Bytes.length data);
            mark_in c;
            match admit_and_police c with
            | None -> send_skip conn [ c.Message.call_seq ]
            | Some cost -> push_wfq ~cost data [ c.Message.call_seq ])
        | Ok (Message.Batch calls, spans) ->
            Vm.charge_bytes vm (Bytes.length data);
            List.iter mark_in calls;
            (* Police per contained call; every member is answered:
               verified members are forwarded (and were charged),
               rejected members got rejection replies above and their
               seqs are skipped at the server.  Never drop a verified,
               already-charged call. *)
            let results =
              List.map2
                (fun c span -> (c, span, admit_and_police c))
                calls spans
            in
            let rejected_seqs =
              List.filter_map
                (fun ((c : Message.call), _, v) ->
                  if v = None then Some c.Message.call_seq else None)
                results
            in
            send_skip conn rejected_seqs;
            let accepted =
              List.filter_map
                (fun (c, span, v) -> Option.map (fun cost -> (c, span, cost)) v)
                results
            in
            (match accepted with
            | [] -> ()
            | _ ->
                let cost =
                  List.fold_left (fun a (_, _, c) -> a +. c) 0.0 accepted
                in
                let seqs =
                  List.map
                    (fun ((c : Message.call), _, _) -> c.Message.call_seq)
                    accepted
                in
                let data =
                  if rejected_seqs = [] then data
                  else
                    (* Re-frame the accepted members from their original
                       sub-frame bytes. *)
                    match
                      List.map
                        (fun (_, (off, len), _) -> Bytes.sub data off len)
                        accepted
                    with
                    | [ frame ] -> frame
                    | frames -> Message.batch_of_frames frames
                in
                push_wfq ~cost data seqs));
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
  let msgs = List.rev conn.in_flight (* oldest first *) in
  conn.in_flight <- [];
  List.iter
    (fun m ->
      t.requeued <- t.requeued + 1;
      conn.pending_seqs <- m.if_seqs @ conn.pending_seqs;
      Policy.Wfq.push wfq ~flow_id:vm_id ~cost:m.if_cost
        (conn, m.if_cost, m.if_data, m.if_seqs))
    msgs;
  List.length msgs

let requeue_in_flight t ~vm_id =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.requeue_in_flight: unknown vm"
  | Some conn -> requeue_conn t conn ~vm_id

let in_flight_calls t ~vm_id =
  match find_conn t vm_id with
  | None -> 0
  | Some conn ->
      List.fold_left (fun a m -> a + List.length m.if_seqs) 0 conn.in_flight

let in_flight_seqs t ~vm_id =
  match find_conn t vm_id with
  | None -> []
  | Some conn ->
      List.sort Stdlib.compare
        (List.concat_map (fun m -> m.if_seqs) conn.in_flight)

(* {1 Multi-backend steering (device pool)} *)

(* The first live seq a new backend will observe for this VM: the
   smallest seq still queued or in flight, else one past the contiguous
   ingress high-water mark (which also covers seqs the guest sent that
   have not reached ingress yet — a gap below the max keeps the cursor
   behind it).  Migration calls this while the source worker is paused,
   then seeds the destination's in-order cursor with it. *)
let next_seq t ~vm_id =
  match find_conn t vm_id with
  | None -> invalid_arg "Router.next_seq: unknown vm"
  | Some conn ->
      let outstanding =
        Option.to_list conn.policing_seq @ conn.pending_seqs
        @ List.concat_map (fun m -> m.if_seqs) conn.in_flight
      in
      List.fold_left Stdlib.min (conn.contig_seq + 1) outstanding

(* Live flow move, the only way a flow changes backend: the VM's flow —
   WFQ backlog, in-flight calls, future ingress — moves onto [backend]
   of [dst], which is this router (a re-steer within one host) or
   another router on the same engine (a cross-host migration).  Across
   routers the whole connection moves: guest endpoint, seq ledger and
   policy objects (bucket/quota/breaker, built on the shared engine);
   the live ingress process follows via [rc_owner].  In-flight calls are
   re-forwarded wholesale; ones the old server already executed may run
   again on the new one (at-least-once, same contract as the
   restart/requeue path).  Skip notices the old backend consumed are
   re-sent to the new one so policed-away seqs cannot park its in-order
   cursor. *)
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
      (* Forward skips the new backend has not seen and might wait on. *)
      let expected = next_seq dst ~vm_id in
      let live_skips =
        List.sort_uniq Stdlib.compare
          (List.filter (fun s -> s >= expected) conn.skipped_seqs)
      in
      conn.skipped_seqs <- [];
      send_skip conn live_skips;
      start_dispatcher dst dst_b;
      spawn_egress dst conn server_side;
      dst.resteered <- dst.resteered + 1
