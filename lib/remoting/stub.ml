(* The guest library runtime: AvA's API-agnostic marshalling engine on
   the VM side.

   Generated guest stubs (here: the plan-driven glue in [Ava_core]) call
   [invoke]; this module handles sequencing, the sync/async decision from
   the {!Ava_codegen.Plan}, reply matching, and the paper's deferred-error
   semantics for asynchronously forwarded calls: an async failure is
   reported by the next synchronous call on the same stub. *)

module Plan = Ava_codegen.Plan
module Transport = Ava_transport.Transport
module Obs = Ava_obs.Obs
module Iommu = Ava_device.Iommu

open Ava_sim

(* Guest-assigned object ids live above the server's virtual-id range
   (see {!Server.Ctx}) so neither collides with the other or with the
   small integers APIs use for platform/device enumeration. *)
let first_guest_handle = 0x100000

type pending = {
  p_fn : string;
  p_sync : bool;
  p_ack : bool;
      (** forwarded, and its plan leaves the reply unread: the server
          acknowledges a success instead of replying, and the mark
          retires it *)
  mutable p_failed : bool;
      (** a mark named it failed before its failure reached the stub *)
  p_ivar : Message.reply Ivar.t;
      (** filled with the reply of a synchronous call; an asynchronous
          call shares the stub's never-filled [no_wait] *)
  p_on_reply : (Message.reply -> unit) option;
  mutable p_data : bytes array;
      (** encoded [Call] frame, for seq-based resend; switched to
          [p_full] after a cache-miss NAK so watchdog resends carry the
          full payload too *)
  p_full : bytes array Lazy.t;
      (** encoded [Call] frame with every cacheable blob sent in full
          ([Blob_cached], never [Blob_ref]) — the resend after a NAK.
          [p_data] itself when no blob went as a ref; otherwise encoded
          when a NAK asks for it (a synchronous call) or at once (an
          asynchronous one) *)
  p_announced : int64 list;
      (** digests of cacheable payloads in this call; acknowledged as
          server-resident once the reply arrives *)
  mutable p_tries : int;
}

(* Recovery policy for lost calls/replies: after [timeout_ns] without a
   reply the encoded call is resent under its original seq (the server
   deduplicates); the timeout scales by [backoff] per attempt, and after
   [max_retries] resends the call fails with {!Server.status_timeout}.
   Each sleep is additionally scattered by a seeded per-VM jitter factor
   in [1-jitter, 1+jitter] so guests sharing a fate event (server
   restart, device reset) don't resend in lockstep; [jitter = 0.0]
   reproduces the pure exponential schedule bit-for-bit. *)
type retry = {
  timeout_ns : Time.t;
  max_retries : int;
  backoff : float;
  jitter : float;
}

let default_retry =
  { timeout_ns = Time.ms 20; max_retries = 12; backoff = 2.0; jitter = 0.25 }

(* Content-addressed transfer cache (guest half): blobs within
   [min_bytes, max_bytes] are hashed ([Wire.digest]); once the server has
   acknowledged a digest, later sends of the same payload travel as a
   13-byte [Blob_ref].  [max_bytes] must not exceed the server store
   capacity or an oversized blob would NAK forever. *)
type cache = { cache_min_bytes : int; cache_max_bytes : int }

let cache_for_capacity capacity =
  { cache_min_bytes = 1024; cache_max_bytes = capacity }

(* Shared virtual addressing (guest half): blobs of at least a page are
   pinned into the device IOVA window ([Iommu.map], charged as marshal
   work) and travel as a 13-byte [Mapped_ref] — the payload bytes never
   cross the wire at all.  Each call maps its buffers fresh: workloads
   hand the runtime newly written buffers per call, so memoizing
   (iova reuse keyed on physical identity) would claim savings the
   guest's dirtying pattern doesn't justify.  Conservative by design. *)
let sva_min_bytes = Ava_device.Dma.page_size

type t = {
  engine : Engine.t;
  vm_id : int;
  plan : Plan.t;
  ep : Transport.endpoint;
  retry : retry option;  (** [None]: no watchdogs at all (default) *)
  retry_rng : Rng.t;  (** per-VM stream for watchdog jitter *)
  mutable next_seq : int;
  mutable next_handle : int;
  pending : (int, pending) Hashtbl.t;
  no_wait : Message.reply Ivar.t;  (** [p_ivar] of every async call *)
  sync_scalars : Plan.scalars;
      (** [plan_sync]'s scratch view, read again by [Plan.acknowledged]
          with no yield between *)
  deferred_errors : (string * int) Queue.t;  (** oldest first *)
  mutable mark : int;  (** the highest acknowledgement mark seen *)
  mutable unreported : int;  (** pending calls with [p_failed] set *)
  mutable held : (int * pending * Message.reply) list;
      (** synchronous replies waiting for an unreported failure below
          their seq: (seq, call, reply) *)
  mutable returned : int;  (** highest seq of a returned synchronous call *)
  mutable marshalling : int;  (** calls with a seq, not yet pending *)
  mutable on_defer : (seq:int -> unit) option;
      (** sees each failure entering [deferred_errors] *)
  mutable late_failures : int;
      (** async failures deferred after a later synchronous call returned *)
  batch_limit : int;  (** max async calls buffered; 1 disables batching *)
  batch_bytes_limit : int;
  mutable batch : (int * bytes array) list;
      (** held calls as (seq, encoded [Call] frame), newest first *)
  mutable batch_bytes : int;
  mutable batches_sent : int;
  mutable sync_calls : int;
  mutable async_calls : int;
  mutable marshalled_bytes : int;
  mutable retries : int;  (** resends performed by the watchdogs *)
  mutable timeouts : int;  (** calls that exhausted their retry budget *)
  callbacks : (int, Wire.value list -> unit) Hashtbl.t;
  mutable next_callback : int;
  mutable upcalls : int;
  obs : Obs.vm option;
      (** this VM's spans in the latency-attribution registry; purely
          passive, never advances virtual time, so arming it cannot
          perturb the run *)
  cache : cache option;  (** [None]: transfer cache off (default) *)
  sva : Iommu.t option;  (** [None]: SVA off (default) *)
  mutable sva_maps : int;  (** blobs pinned and sent as [Mapped_ref] *)
  mutable sva_saved_bytes : int;  (** payload bytes elided by refs *)
  acked : (int64, unit) Hashtbl.t;
      (** digests the server has acknowledged as store-resident *)
  mutable cache_refs : int;  (** payloads sent as [Blob_ref] *)
  mutable cache_saved_bytes : int;  (** payload bytes elided by refs *)
  mutable cache_announces : int;  (** payloads sent as [Blob_cached] *)
  mutable cache_nak_resends : int;  (** full resends after a cache miss *)
}

let rec ack_digests t = function
  | [] -> ()
  | d :: ds ->
      Hashtbl.replace t.acked d ();
      ack_digests t ds

(* Queue an async call's failure for the next synchronous call. *)
let defer t seq fn status =
  Queue.push (fn, status) t.deferred_errors;
  (match t.on_defer with Some f -> f ~seq | None -> ());
  if seq < t.returned then t.late_failures <- t.late_failures + 1

let return_sync t seq p r =
  if seq > t.returned then t.returned <- seq;
  Ivar.fill p.p_ivar r

(* A synchronous call returns only once every failure below it is in the
   deferred-error channel (§4.2).  A server reply vouches for the calls
   below it: its mark passes them and names their failures, so it waits
   only for a named failure whose reply was lost (its watchdog recovers
   it from the server's reply log).  A reply the server did not send —
   a router rejection, a timeout — vouches for nothing: it waits until
   no asynchronous call below it is pending, nor any call still being
   marshalled (another guest process may hold a lower seq that has not
   left yet). *)
let must_wait t seq (r : Message.reply) =
  let vouched = r.Message.reply_mark > seq in
  ((not vouched) && t.marshalling > 0)
  || (t.unreported > 0 || not vouched)
     && Hashtbl.fold
          (fun s q wait ->
            wait || (s < seq && (q.p_failed || ((not vouched) && not q.p_sync))))
          t.pending false

let answer_sync t seq p r =
  if must_wait t seq r then t.held <- (seq, p, r) :: t.held
  else return_sync t seq p r

(* An asynchronous call left the pending table: release the synchronous
   replies nothing below them holds back any more. *)
let release_held t =
  if t.held <> [] then begin
    let ready, held = List.partition (fun (s, _, r) -> not (must_wait t s r)) t.held in
    t.held <- held;
    List.iter (fun (s, p, r) -> return_sync t s p r) (List.rev ready)
  end

(* An acknowledged call executed and succeeded: its digests are
   store-resident, and its span ends where its execution did, since no
   reply travels back. *)
let retire t seq p =
  Hashtbl.remove t.pending seq;
  (match t.obs with
  | Some o -> Obs.vm_span_ack o ~seq ~at:(Engine.now t.engine)
  | None -> ());
  ack_digests t p.p_announced;
  match p.p_on_reply with
  | Some f ->
      f
        {
          Message.reply_seq = seq;
          reply_status = 0;
          reply_mark = seq + 1;
          reply_failed = [];
          reply_ret = Wire.Unit;
          reply_outs = [];
        }
  | None -> ()

let note_failed t seq =
  match Hashtbl.find t.pending seq with
  | p when (not p.p_sync) && not p.p_failed ->
      p.p_failed <- true;
      t.unreported <- t.unreported + 1
  | _ | (exception Not_found) -> ()

(* Apply an acknowledgement mark: every seq below [mark] executed, and
   within {!Message.failure_span} of it exactly the seqs in the [failed]
   runs failed.  Only the seqs the mark newly passes need reading: an
   earlier mark named the failures below it.  A pending call named
   failed stays until its failure arrives (its watchdog resends if the
   failure reply was lost); every other acknowledged call in the span
   retires. *)
let acknowledge t mark failed =
  if mark > t.mark then begin
    let lo = Stdlib.max t.mark (mark - Message.failure_span) in
    List.iter
      (fun (a, b) ->
        for seq = Stdlib.max a lo to Stdlib.min b mark - 1 do
          note_failed t seq
        done)
      failed;
    for seq = lo to mark - 1 do
      match Hashtbl.find t.pending seq with
      | p -> if p.p_ack && not p.p_failed then retire t seq p
      | exception Not_found -> ()
    done;
    t.mark <- mark;
    release_held t
  end

let create ?(batch_limit = 1) ?retry ?cache ?sva ?obs engine ~vm_id ~plan ~ep
    =
  let t =
    {
      engine;
      vm_id;
      plan;
      ep;
      retry;
      (* Deterministic per-VM stream: two stubs with the same retry
         policy still scatter their resends differently. *)
      retry_rng = Rng.create (Int64.of_int (0x5eed + (vm_id * 7919)));
      next_seq = 0;
      next_handle = first_guest_handle;
      pending = Hashtbl.create 32;
      no_wait = Ivar.create ();
      sync_scalars = Plan.scalars ();
      deferred_errors = Queue.create ();
      mark = 0;
      unreported = 0;
      held = [];
      returned = -1;
      marshalling = 0;
      on_defer = None;
      late_failures = 0;
      batch_limit = Stdlib.max 1 batch_limit;
      batch_bytes_limit = 32 * 1024;
      batch = [];
      batch_bytes = 0;
      batches_sent = 0;
      sync_calls = 0;
      async_calls = 0;
      marshalled_bytes = 0;
      retries = 0;
      timeouts = 0;
      callbacks = Hashtbl.create 8;
      next_callback = 1;
      upcalls = 0;
      obs = Option.map (fun o -> Obs.vm o ~vm:vm_id) obs;
      cache;
      sva;
      sva_maps = 0;
      sva_saved_bytes = 0;
      acked = Hashtbl.create 32;
      cache_refs = 0;
      cache_saved_bytes = 0;
      cache_announces = 0;
      cache_nak_resends = 0;
    }
  in
  (* Reply receiver: dispatches replies to waiting callers, runs
     completion callbacks of async calls and retires the calls each
     acknowledgement mark covers. *)
  let dec = Message.decoder ~share:false in
  Engine.spawn engine (fun () ->
      let rec loop () =
        (match Message.read_message dec (Transport.recv ep) with
        | Ok (Message.Reply r) -> (
            acknowledge t r.Message.reply_mark r.Message.reply_failed;
            match Hashtbl.find t.pending r.Message.reply_seq with
            | exception Not_found -> () (* late reply for a cancelled call: drop *)
            | p ->
                Hashtbl.remove t.pending r.Message.reply_seq;
                (match t.obs with
                | Some o ->
                    let now = Engine.now engine in
                    Obs.vm_mark o ~seq:r.Message.reply_seq Obs.M_reply_recv
                      ~at:now;
                    Obs.vm_span_close o ~seq:r.Message.reply_seq
                      ~status:r.Message.reply_status ~at:now
                | None -> ());
                (* A reply means the server resolved every payload of this
                   call, so its digests are now store-resident. *)
                ack_digests t p.p_announced;
                (match p.p_on_reply with Some f -> f r | None -> ());
                if (not p.p_sync) && r.Message.reply_status <> 0 then
                  defer t r.Message.reply_seq p.p_fn r.Message.reply_status;
                if p.p_failed then t.unreported <- t.unreported - 1;
                if p.p_sync then answer_sync t r.Message.reply_seq p r
                else release_held t)
        | Ok (Message.Ack a) -> acknowledge t a.Message.ack_mark a.Message.ack_failed
        | Ok (Message.Nak n) -> (
            (* Cache miss: forget the rejected digests, then resend the
               full-payload frame under the original seq.  The watchdog
               (if armed) also switches to the full frame. *)
            List.iter
              (fun d -> Hashtbl.remove t.acked d)
              n.Message.nak_digests;
            match Hashtbl.find_opt t.pending n.Message.nak_seq with
            | None -> () (* already replied or given up: drop *)
            | Some p ->
                t.cache_nak_resends <- t.cache_nak_resends + 1;
                let full = Lazy.force p.p_full in
                p.p_data <- full;
                (* Recovery traffic never waits behind a coalescing
                   horizon: the server is stalled on this seq. *)
                Transport.send ~kick:true t.ep full)
        | Ok (Message.Upcall u) -> (
            (* Dispatch a server-to-guest callback in its own process so
               a slow callback never blocks reply delivery. *)
            match Hashtbl.find_opt t.callbacks u.Message.up_cb with
            | None -> ()
            | Some f ->
                t.upcalls <- t.upcalls + 1;
                Engine.spawn engine (fun () -> f u.Message.up_args))
        | Ok (Message.Call _) | Ok (Message.Batch _) | Ok (Message.Skip _)
        | Error _ -> ());
        loop ()
      in
      loop ());
  t

let batches_sent t = t.batches_sent
let upcalls_received t = t.upcalls
let retries t = t.retries
let timeouts t = t.timeouts
let cache_refs t = t.cache_refs
let sva_maps t = t.sva_maps
let sva_saved_bytes t = t.sva_saved_bytes
let cache_saved_bytes t = t.cache_saved_bytes
let cache_announces t = t.cache_announces
let cache_nak_resends t = t.cache_nak_resends

(* Register a guest closure; the returned id travels in place of the C
   function pointer and the server upcalls through it. *)
let register_callback t f =
  let id = t.next_callback in
  t.next_callback <- id + 1;
  Hashtbl.replace t.callbacks id f;
  id

let sync_calls t = t.sync_calls
let async_calls t = t.async_calls
let marshalled_bytes t = t.marshalled_bytes
let in_flight t = Hashtbl.length t.pending

(* Allocate a guest-managed object id (sent to the server, which binds
   its host object to it). *)
let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  h

(* The deferred-error channel of §4.2: async calls cannot fail at their
   call site; the error surfaces here, at the next synchronous call. *)
let take_deferred_error t = Queue.take_opt t.deferred_errors
let pending_errors t = Queue.length t.deferred_errors
let set_defer_hook t f = t.on_defer <- Some f
let late_failures t = t.late_failures

(* Charge the CPU cost of marshalling: descriptor build plus pinning of
   bulk payloads (zero-copy transport; no payload memcpy). *)
let marshal_cost_ns bytes = Time.ns (400 + (bytes / 64))

(* Hashing runs at memory speed (~32 B/ns); charged only when the cache
   is armed so the disabled stack stays bit-identical. *)
let hash_cost_ns bytes = Time.ns (bytes / 32)

(* Walk the argument values, replacing each cacheable [Blob]: by a
   [Blob_ref] when its digest is server-acknowledged, by a [Blob_cached]
   (digest announce) otherwise.  Returns the substituted args, the args
   with every cacheable blob in full (the NAK-resend form) when any blob
   went as a ref and [None] when the two forms are the same, the digests
   carried, and the payload bytes hashed. *)
let cache_substitute t c args =
  let digests = ref [] and hashed = ref 0 and refs = ref false in
  let cacheable b =
    let len = Bytes.length b in
    len >= c.cache_min_bytes && len <= c.cache_max_bytes
  in
  let rec subst v =
    match v with
    | Wire.Blob b when cacheable b ->
        let d = Wire.digest b in
        hashed := !hashed + Bytes.length b;
        digests := d :: !digests;
        let full = Wire.Blob_cached { bc_digest = d; bc_data = b } in
        if Hashtbl.mem t.acked d then begin
          refs := true;
          t.cache_refs <- t.cache_refs + 1;
          t.cache_saved_bytes <- t.cache_saved_bytes + Bytes.length b;
          (Wire.Blob_ref { br_digest = d; br_size = Bytes.length b }, full)
        end
        else begin
          t.cache_announces <- t.cache_announces + 1;
          (full, full)
        end
    | Wire.List vs ->
        let pairs = List.map subst vs in
        (Wire.List (List.map fst pairs), Wire.List (List.map snd pairs))
    | v -> (v, v)
  in
  let pairs = List.map subst args in
  ( List.map fst pairs,
    (if !refs then Some (List.map snd pairs) else None),
    List.rev !digests,
    !hashed )

(* Pin page-or-larger blobs into the device IOVA window and replace them
   by [Mapped_ref]s.  Runs before the transfer-cache walk, so mapped
   buffers are never hashed — the two substitutions partition the blobs
   by size.  [Iommu.map] delays for the per-page pin cost, which lands
   in the call's marshal phase (pinning is CPU-side descriptor work). *)
let sva_substitute t iommu args =
  let rec subst v =
    match v with
    | Wire.Blob b when Bytes.length b >= sva_min_bytes ->
        let iova = Iommu.map iommu (Bytes.copy b) in
        t.sva_maps <- t.sva_maps + 1;
        t.sva_saved_bytes <- t.sva_saved_bytes + Bytes.length b;
        Wire.Mapped_ref { mr_iova = iova; mr_size = Bytes.length b }
    | Wire.List vs -> Wire.List (List.map subst vs)
    | v -> v
  in
  List.map subst args

(* Send the frame of calls [seqs] with obs armed, stamping departure on
   each call (first write wins, so watchdog resends never rewind a span)
   and the doorbell-commit boundary.  The latter only fires on
   doorbell-armed transports (see [Transport.send ?on_scheduled]), so
   un-coalesced runs never grow a doorbell phase. *)
let send_marked t o ~kick seqs data =
  let now = Engine.now t.engine in
  List.iter (fun seq -> Obs.vm_mark o ~seq Obs.M_sent ~at:now) seqs;
  Transport.send ~kick
    ~on_scheduled:(fun at ->
      List.iter (fun seq -> Obs.vm_mark o ~seq Obs.M_doorbell ~at) seqs)
    t.ep data

(* A literal [~kick]: passing a variable to the optional argument would
   box it on every send. *)
let send_kicked t ?on_scheduled ~kick data =
  if kick then Transport.send ~kick:true ?on_scheduled t.ep data
  else Transport.send ?on_scheduled t.ep data

(* Send one call's frame.  With obs armed the departure mark is stamped
   directly, and the doorbell-boundary closure is built only for a
   doorbell-armed endpoint, the only kind that calls it. *)
let send_one t ~kick seq data =
  match t.obs with
  | None -> send_kicked t ~kick data
  | Some o ->
      Obs.vm_mark o ~seq Obs.M_sent ~at:(Engine.now t.engine);
      if Transport.doorbell_armed t.ep then
        send_kicked t ~kick
          ~on_scheduled:(fun at -> Obs.vm_mark o ~seq Obs.M_doorbell ~at)
          data
      else send_kicked t ~kick data

(* Send any buffered asynchronous calls as one batch message (rCUDA-style
   API batching, §4.2).  Marshalling costs were already charged when each
   call was buffered; the flush pays one transport send. *)
let flush_batch t =
  match List.rev t.batch with
  | [] -> ()
  | held ->
      t.batch <- [];
      t.batch_bytes <- 0;
      let data =
        match held with
        | [ (_, frame) ] -> frame
        | _ ->
            t.batches_sent <- t.batches_sent + 1;
            Message.batch_of_frames (List.map snd held)
      in
      (match t.obs with
      | None -> Transport.send t.ep data
      | Some o -> send_marked t o ~kick:false (List.map fst held) data)

(* Give up on a pending call: synthesize a timeout reply so the caller
   (or the deferred-error channel) observes the failure instead of
   hanging forever. *)
let give_up t seq p =
  Hashtbl.remove t.pending seq;
  t.timeouts <- t.timeouts + 1;
  (match t.obs with
  | Some o ->
      Obs.vm_span_close o ~seq ~status:Server.status_timeout
        ~at:(Engine.now t.engine)
  | None -> ());
  let reply =
    {
      Message.reply_seq = seq;
      reply_status = Server.status_timeout;
      reply_mark = 0;
      reply_failed = [];
      reply_ret = Wire.Unit;
      reply_outs = [];
    }
  in
  (match p.p_on_reply with Some f -> f reply | None -> ());
  if p.p_sync then answer_sync t seq p reply
  else defer t seq p.p_fn Server.status_timeout;
  if p.p_failed then t.unreported <- t.unreported - 1;
  if not p.p_sync then release_held t

(* Scatter one watchdog sleep by the policy's jitter factor.  Zero
   jitter draws nothing from the RNG, keeping the schedule (and the
   stream) bit-identical to the pure exponential one. *)
let jittered t r base_ns =
  if r.jitter <= 0.0 then base_ns
  else
    let f = 1.0 +. (r.jitter *. ((2.0 *. Rng.float t.retry_rng) -. 1.0)) in
    Stdlib.max 1 (int_of_float (float_of_int base_ns *. f))

(* Per-call watchdog: as long as the seq is pending, resend its encoded
   frame on an exponential-backoff schedule (each sleep scattered by the
   per-VM jitter; the un-jittered base drives the backoff).  Resends
   carry the original seq, so the server executes at most once and
   replays the cached reply for duplicates; a lost reply is recovered
   the same way. *)
let start_watchdog t r seq =
  Engine.spawn t.engine (fun () ->
      let rec watch base_ns =
        Engine.delay (jittered t r base_ns);
        match Hashtbl.find_opt t.pending seq with
        | None -> () (* replied; nothing to do *)
        | Some p ->
            if p.p_tries >= r.max_retries then give_up t seq p
            else begin
              p.p_tries <- p.p_tries + 1;
              t.retries <- t.retries + 1;
              send_kicked t ~kick:true p.p_data;
              watch
                (Stdlib.max 1
                   (int_of_float (float_of_int base_ns *. r.backoff)))
            end
      in
      watch r.timeout_ns)

(* Batching policy: only calls that touch no device resource (argument
   updates, reference counting) are held back; any device-work or
   synchronous call departs immediately, carrying the held calls with it
   (piggybacking), so batching never delays the accelerator. *)
let send_frame t seq fn ~sync ~ack ~holdable ~on_reply ~full ~announced ~hashed
    data =
  let len = Transport.length data in
  t.marshalled_bytes <- t.marshalled_bytes + len;
  if hashed > 0 then Engine.delay (hash_cost_ns hashed);
  Engine.delay (marshal_cost_ns len);
  (match t.obs with
  | Some o ->
      Obs.vm_mark o ~seq Obs.M_marshal_done
        ~at:(Engine.now t.engine)
  | None -> ());
  let p =
    { p_fn = fn; p_sync = sync; p_ack = ack; p_failed = false;
      p_ivar = (if sync then Ivar.create () else t.no_wait);
      p_on_reply = on_reply; p_data = data; p_full = full;
      p_announced = announced; p_tries = 0 }
  in
  Hashtbl.replace t.pending seq p;
  t.marshalling <- t.marshalling - 1;
  release_held t;
  (match t.retry with Some r -> start_watchdog t r seq | None -> ());
  if t.batch_limit = 1 then send_one t ~kick:sync seq data
  else if sync then begin
    (* Synchronous calls flush held work first so ordering is preserved,
       then travel alone (their reply is awaited).  The kick rings any
       coalesced doorbell immediately: the caller is already committed
       to a round trip, so there is nothing to wait for. *)
    flush_batch t;
    send_one t ~kick:true seq data
  end
  else if not holdable then begin
    (* Device work departs now, taking the held calls along. *)
    t.batch <- (seq, data) :: t.batch;
    t.batch_bytes <- t.batch_bytes + len;
    flush_batch t
  end
  else begin
    t.batch <- (seq, data) :: t.batch;
    t.batch_bytes <- t.batch_bytes + len;
    if
      List.length t.batch >= t.batch_limit
      || t.batch_bytes >= t.batch_bytes_limit
    then flush_batch t
  end;
  p

(* Payload ownership.  Guest libraries hand the stub the caller's own
   buffers, uncopied.  [send_call] encodes the frame before its first
   yield, and the encode copies every payload (a page-sized one into a
   segment of its own), so the encode is the snapshot and the caller may
   reuse a buffer as soon as the call returns.  A NAK-resend frame is
   encoded the same way: a synchronous caller is blocked until its
   reply, so its buffers still hold the call's bytes when a NAK comes,
   and the frame is encoded only then; an asynchronous call's is encoded
   at once.  Blobs pinned for SVA are copied when they are pinned (the
   server reads them through the IOMMU later).  A reply's payloads are
   copied out of its frame by the receiver: those copies are the
   guest's own. *)
let encode_call call args =
  Message.iovec ~copy:true (Message.Call { call with Message.call_args = args })

let send_call t ~fn ~args ~sync ~ack ~holdable ~on_reply =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.marshalling <- t.marshalling + 1;
  (match t.obs with
  | Some o ->
      Obs.vm_span_open o ~seq ~fn ~at:(Engine.now t.engine)
  | None -> ());
  let args =
    match t.sva with None -> args | Some iommu -> sva_substitute t iommu args
  in
  let call =
    { Message.call_seq = seq; call_vm = t.vm_id; call_fn = fn; call_args = args }
  in
  match t.cache with
  | None ->
      let data = Message.iovec ~copy:true (Message.Call call) in
      send_frame t seq fn ~sync ~ack ~holdable ~on_reply
        ~full:(Lazy.from_val data) ~announced:[] ~hashed:0 data
  | Some c ->
      let sent_args, full_args, announced, hashed = cache_substitute t c args in
      let data = encode_call call sent_args in
      (* Announces travel in full already, so the NAK-resend frame differs
         from [data] only when a blob went as a ref.  Only an
         asynchronous caller may reuse its buffers before a NAK. *)
      let full =
        match full_args with
        | None -> Lazy.from_val data
        | Some args when sync -> lazy (encode_call call args)
        | Some args -> Lazy.from_val (encode_call call args)
      in
      send_frame t seq fn ~sync ~ack ~holdable ~on_reply ~full ~announced ~hashed
        data

(* The plan's synchrony verdict for one invocation.  Only a conditional
   plan reads argument values, so only it loads the scalar view. *)
let plan_sync t (plan : Plan.call_plan) args =
  if Plan.reads_scalars plan then Wire.load_scalars t.sync_scalars args;
  Plan.sync_of_scalars plan t.sync_scalars

type answer = Forwarded | Replied of Message.reply | No_plan of string

(* Invoke [fn] as its plan says: a waited call answers its reply; a
   forwarded one answers at once and delivers its reply through
   [on_reply]. *)
let invoke ?on_reply t ~fn ~args =
  match Plan.find_exn t.plan fn with
  | exception Not_found ->
      No_plan (Printf.sprintf "no plan for function %S" fn)
  | plan ->
      if plan_sync t plan args then begin
        t.sync_calls <- t.sync_calls + 1;
        let p =
          send_call t ~fn ~args ~sync:true ~ack:false ~holdable:false ~on_reply
        in
        Replied (Ivar.read p.p_ivar)
      end
      else begin
        t.async_calls <- t.async_calls + 1;
        (* Holdable: produces nothing and consumes no device resource. *)
        let holdable =
          (not (Plan.has_outputs plan)) && plan.Plan.cp_resources = []
        in
        let _ =
          send_call t ~fn ~args ~sync:false
            ~ack:(Plan.acknowledged plan t.sync_scalars)
            ~holdable ~on_reply
        in
        Forwarded
      end
