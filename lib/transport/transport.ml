(* Pluggable message transports.

   A transport moves opaque byte messages between two parties with a
   configurable cost model; AvA's guest library, router and API server are
   connected by pairs of endpoints.  Because endpoints are symmetric
   values, topologies are free: guest<->router<->server for
   hypervisor-interposed remoting, guest<->server for vCUDA-style
   user-space RPC, or guest<->remote-server for disaggregation.

   Cost model per direction:
   - [per_msg_ns]   sender-side fixed cost (marshalled descriptor, kick)
   - [bytes_per_s]  sender-side streaming cost (copy into the channel)
   - [deliver_ns]   in-flight latency (notification/interrupt/network);
                    deliveries pipeline, so back-to-back messages overlap
                    their delivery latency as on real links. *)

open Ava_sim

type cost = { per_msg_ns : Time.t; bytes_per_s : float; deliver_ns : Time.t }

let free_cost = { per_msg_ns = 0; bytes_per_s = infinity; deliver_ns = 0 }

type stats = {
  mutable sent_msgs : int;
  mutable sent_bytes : int;
  mutable recv_msgs : int;
}

(* One outgoing message may fan out into zero (dropped), one, or several
   (duplicated) deliveries, each optionally carrying extra latency. *)
type delivery = { d_payload : bytes array; d_extra_ns : Time.t }

(* Doorbell coalescing (virtio event-suppression style): on a ring
   transport the dominant per-message cost is the notify —
   [deliver_ns], a hypercall-plus-interrupt round.  With a doorbell
   armed, a slot written while the peer is still draining earlier slots
   — or within the [db_poll_ns] grace window the peer keeps polling
   after its last drained slot before re-arming the interrupt (NAPI /
   virtio EVENT_IDX) — needs no notify at all: the drain or the poll
   picks it up [db_slot_ns] after the slot before it.  Otherwise slots
   accumulate and one notify covers the whole batch, rung when
   [db_batch] slots are pending, when the oldest has waited
   [db_horizon_ns], or immediately for a [~kick:true] send (synchronous
   calls: the caller is already committed to a round trip). *)
type doorbell_cfg = {
  db_horizon_ns : Time.t;  (** max time the oldest pending slot waits *)
  db_batch : int;  (** pending-slot count forcing an immediate flush *)
  db_slot_ns : Time.t;  (** peer-side per-slot drain spacing *)
  db_poll_ns : Time.t;
      (** adaptive-poll grace: how long the peer keeps polling the ring
          after its last drained slot before re-arming the interrupt *)
}

let default_doorbell =
  {
    db_horizon_ns = Time.ns 800;
    db_batch = 8;
    db_slot_ns = Time.ns 100;
    (* NAPI / busy-poll style: a worker that just drained a slot stays
       in its poll loop for a few round trips before sleeping. *)
    db_poll_ns = Time.ns 25_000;
  }

type doorbell = {
  db_cfg : doorbell_cfg;
  mutable db_pending : (bytes array * (Time.t -> unit) option) list;
      (** newest first; flushed oldest first *)
  mutable db_drain_until : Time.t;
      (** last scheduled slot delivery; the peer keeps polling for
          [db_poll_ns] past it before re-arming the interrupt *)
  mutable db_gen : int;  (** arm generation, invalidates stale timers *)
  mutable db_notifies : int;
  mutable db_suppressed : int;
  mutable db_forced : int;  (** flushes forced by the batch cap *)
}

type endpoint = {
  engine : Engine.t;
  out_cost : cost;
  peer : bytes array Channel.t;  (** peer's inbox *)
  inbox : bytes array Channel.t;
  stats : stats;
  mutable send_hook : (bytes array -> delivery list) option;
  mutable recv_hook : (bytes array -> bytes array option) option;
  mutable last_delivery_at : Time.t;
      (** FIFO clamp for hooked sends: extra fault delays never reorder
          messages on a link (as on TCP-like in-order transports) *)
  mutable doorbell : doorbell option;
  mutable peer_ep : endpoint option;
      (** the other end of the duplex link; a send on this end counts
          as peer-worker activity, refreshing the poll window of any
          doorbell armed over there *)
  mutable transit : bytes array array;
  mutable transit_head : int;
  mutable transit_len : int;
      (** plain (hook- and doorbell-free) sends still in flight, oldest
          first, in a ring whose size is a power of two *)
  mutable deliver_next : unit -> unit;
      (** delivers the ring's oldest message: the one event callback
          every plain send schedules *)
}

(* Plain sends all take [deliver_ns], so their deliveries fall due in
   send order (same-instant events fire in scheduling order) and each
   event can hand over the ring's oldest message: no per-send closure. *)
let transit_push ep msg =
  let cap = Array.length ep.transit in
  if ep.transit_len = cap then begin
    let ring = Array.make (Stdlib.max 4 (2 * cap)) [||] in
    for i = 0 to ep.transit_len - 1 do
      ring.(i) <- ep.transit.((ep.transit_head + i) land (cap - 1))
    done;
    ep.transit <- ring;
    ep.transit_head <- 0
  end;
  let mask = Array.length ep.transit - 1 in
  ep.transit.((ep.transit_head + ep.transit_len) land mask) <- msg;
  ep.transit_len <- ep.transit_len + 1

let transit_pop ep =
  let msg = ep.transit.(ep.transit_head) in
  ep.transit.(ep.transit_head) <- [||];
  ep.transit_head <- (ep.transit_head + 1) land (Array.length ep.transit - 1);
  ep.transit_len <- ep.transit_len - 1;
  msg

let set_send_hook ep hook = ep.send_hook <- hook
let set_recv_hook ep hook = ep.recv_hook <- hook

let set_doorbell ?(cfg = default_doorbell) ep =
  ep.doorbell <-
    Some
      {
        db_cfg = cfg;
        db_pending = [];
        db_drain_until = 0;
        db_gen = 0;
        db_notifies = 0;
        db_suppressed = 0;
        db_forced = 0;
      }

let doorbell_armed ep = ep.doorbell <> None

let db_counter f ep = match ep.doorbell with None -> 0 | Some db -> f db

let db_notifies ep = db_counter (fun db -> db.db_notifies) ep
let db_suppressed ep = db_counter (fun db -> db.db_suppressed) ep
let db_forced_flushes ep = db_counter (fun db -> db.db_forced) ep
let db_pending ep = db_counter (fun db -> List.length db.db_pending) ep

(* Ring the doorbell: one notify, then the peer drains the batch one
   slot per [db_slot_ns].  The first slot lands no earlier than the
   drain of any previous batch (ring slots are consumed in order). *)
let db_flush ep db =
  match List.rev db.db_pending with
  | [] -> ()
  | slots ->
      db.db_pending <- [];
      db.db_gen <- db.db_gen + 1;
      db.db_notifies <- db.db_notifies + 1;
      let now = Engine.now ep.engine in
      let first =
        Stdlib.max
          (now + ep.out_cost.deliver_ns)
          (db.db_drain_until + db.db_cfg.db_slot_ns)
      in
      List.iteri
        (fun i (payload, on_scheduled) ->
          let at = first + (i * db.db_cfg.db_slot_ns) in
          db.db_drain_until <- at;
          (match on_scheduled with Some f -> f now | None -> ());
          Engine.schedule ep.engine ~at (fun () ->
              Channel.send ep.peer payload))
        slots

let db_enqueue ep db ~kick ~on_scheduled msg =
  let now = Engine.now ep.engine in
  if
    db.db_pending = []
    && db.db_drain_until > 0
    && now <= db.db_drain_until + db.db_cfg.db_poll_ns
  then begin
    (* The peer is still draining earlier slots, or polling within the
       grace window after its last drained slot: this one rides along,
       no notify needed at all (kicked or not — the poller sees the
       slot without an interrupt). *)
    let at =
      Stdlib.max now db.db_drain_until + db.db_cfg.db_slot_ns
    in
    db.db_drain_until <- at;
    db.db_suppressed <- db.db_suppressed + 1;
    (match on_scheduled with Some f -> f now | None -> ());
    Engine.schedule ep.engine ~at (fun () -> Channel.send ep.peer msg)
  end
  else begin
    let was_empty = db.db_pending = [] in
    db.db_pending <- (msg, on_scheduled) :: db.db_pending;
    if kick then db_flush ep db
    else if List.length db.db_pending >= db.db_cfg.db_batch then begin
      db.db_forced <- db.db_forced + 1;
      db_flush ep db
    end
    else if was_empty then begin
      (* Arm the flush horizon for this batch; a flush bumps the
         generation, so a timer that outlives its batch is inert. *)
      let gen = db.db_gen in
      Engine.schedule_after ep.engine db.db_cfg.db_horizon_ns (fun () ->
          match ep.doorbell with
          | Some db when db.db_gen = gen -> db_flush ep db
          | _ -> ())
    end
  end

(* A message is an iovec: its bytes are the concatenation of its
   segments, and every cost and counter reads the summed length. *)
let rec iov_length msg i acc =
  if i = Array.length msg then acc
  else iov_length msg (i + 1) (acc + Bytes.length (Array.unsafe_get msg i))

let length msg = iov_length msg 0 0

let send ?(kick = false) ?on_scheduled ep msg =
  let len = length msg in
  Engine.delay ep.out_cost.per_msg_ns;
  if Float.is_finite ep.out_cost.bytes_per_s then
    Engine.delay
      (Time.of_bandwidth ~bytes:len ~bytes_per_s:ep.out_cost.bytes_per_s);
  ep.stats.sent_msgs <- ep.stats.sent_msgs + 1;
  ep.stats.sent_bytes <- ep.stats.sent_bytes + len;
  (* Posting on this end means the worker behind it is awake and about
     to re-poll the opposite ring (an API server that just replied
     checks for the next request before sleeping) — so refresh the
     poll window of a doorbell armed on the other end. *)
  (match ep.peer_ep with
  | Some peer -> (
      match peer.doorbell with
      | Some db ->
          db.db_drain_until <-
            Stdlib.max db.db_drain_until (Engine.now ep.engine)
      | None -> ())
  | None -> ());
  match (ep.doorbell, ep.send_hook) with
  | Some db, None -> db_enqueue ep db ~kick ~on_scheduled msg
  | None, None ->
      (* The hook-free path is byte-for-byte the historical one, so a
         stack without fault injection times identically.
         [on_scheduled] fires only on doorbell-armed endpoints, keeping
         the observability of this path unchanged too. *)
      if ep.out_cost.deliver_ns = 0 then Channel.send ep.peer msg
      else begin
        transit_push ep msg;
        Engine.schedule_after ep.engine ep.out_cost.deliver_ns ep.deliver_next
      end
  | _, Some hook ->
      (* Fault injection owns the delivery schedule: a doorbell on the
         same endpoint is ignored (the combination is not modelled). *)
      List.iter
        (fun { d_payload; d_extra_ns } ->
          let now = Engine.now ep.engine in
          let at = now + ep.out_cost.deliver_ns + Stdlib.max 0 d_extra_ns in
          let at = Stdlib.max at ep.last_delivery_at in
          ep.last_delivery_at <- at;
          if at <= now then Channel.send ep.peer d_payload
          else
            Engine.schedule ep.engine ~at (fun () ->
                Channel.send ep.peer d_payload))
        (hook msg)

let rec recv ep =
  let msg = Channel.recv ep.inbox in
  match ep.recv_hook with
  | None ->
      ep.stats.recv_msgs <- ep.stats.recv_msgs + 1;
      msg
  | Some hook -> (
      match hook msg with
      | Some msg ->
          ep.stats.recv_msgs <- ep.stats.recv_msgs + 1;
          msg
      | None -> recv ep (* discarded (e.g. failed checksum): keep waiting *))

let stats ep = ep.stats

(* Build a bidirectional link; returns the two ends. *)
let duplex engine ~a_to_b ~b_to_a =
  let inbox_a = Channel.create () and inbox_b = Channel.create () in
  let mk out_cost peer inbox =
    {
      engine;
      out_cost;
      peer;
      inbox;
      stats = { sent_msgs = 0; sent_bytes = 0; recv_msgs = 0 };
      send_hook = None;
      recv_hook = None;
      last_delivery_at = 0;
      doorbell = None;
      peer_ep = None;
      transit = [||];
      transit_head = 0;
      transit_len = 0;
      deliver_next = ignore;
    }
  in
  let mk out_cost peer inbox =
    let ep = mk out_cost peer inbox in
    ep.deliver_next <- (fun () -> Channel.send ep.peer (transit_pop ep));
    ep
  in
  let a = mk a_to_b inbox_b inbox_a and b = mk b_to_a inbox_a inbox_b in
  a.peer_ep <- Some b;
  b.peer_ep <- Some a;
  (a, b)

(* Canned transports, parameterized by the virtualization timing set. *)

(* In-process, cost-free: unit tests and native baselines. *)
let direct engine = duplex engine ~a_to_b:free_cost ~b_to_a:free_cost

(* Hypervisor-managed shared-memory ring (SVGA-style FIFO): the
   interposable transport AvA prefers. *)
let shm_ring engine ~(virt : Ava_device.Timing.virt) =
  let c =
    {
      per_msg_ns = Time.ns 300;
      bytes_per_s = virt.Ava_device.Timing.ring_bytes_per_s;
      deliver_ns = virt.Ava_device.Timing.ring_notify_ns;
    }
  in
  duplex engine ~a_to_b:c ~b_to_a:c

(* User-space RPC that bypasses the hypervisor (vCUDA/rCUDA-style). *)
let user_rpc engine ~(virt : Ava_device.Timing.virt) =
  let c =
    {
      per_msg_ns = Time.ns 500;
      bytes_per_s = virt.Ava_device.Timing.rpc_bytes_per_s;
      deliver_ns = virt.Ava_device.Timing.rpc_latency_ns;
    }
  in
  duplex engine ~a_to_b:c ~b_to_a:c

(* Network transport to a disaggregated API server (LegoOS-style).
   Each message pays a send syscall + segmentation, which is what makes
   API batching worthwhile on this transport. *)
let network engine ~(virt : Ava_device.Timing.virt) =
  let c =
    {
      per_msg_ns = Time.us 4;
      bytes_per_s = virt.Ava_device.Timing.net_bytes_per_s;
      deliver_ns = virt.Ava_device.Timing.net_latency_ns;
    }
  in
  duplex engine ~a_to_b:c ~b_to_a:c

type kind = Direct | Shm_ring | User_rpc | Network

let kind_to_string = function
  | Direct -> "direct"
  | Shm_ring -> "shm-ring"
  | User_rpc -> "user-rpc"
  | Network -> "network"

let make kind engine ~virt =
  match kind with
  | Direct -> direct engine
  | Shm_ring -> shm_ring engine ~virt
  | User_rpc -> user_rpc engine ~virt
  | Network -> network engine ~virt
