(* Resource-management policies enforced by the router (§4.3 of the
   paper): token-bucket rate limiting, weighted fair queueing on
   estimated device time, and windowed device-time quotas. *)

open Ava_sim

module Token_bucket = struct
  type t = {
    engine : Engine.t;
    rate_per_s : float;  (** token refill rate *)
    burst : float;  (** bucket capacity *)
    mutable tokens : float;
    mutable last_refill : Time.t;
    mutable throttle_ns : Time.t;  (** total time spent throttled *)
  }

  let create engine ~rate_per_s ~burst =
    if rate_per_s <= 0.0 || burst <= 0.0 then
      invalid_arg "Token_bucket.create: rate and burst must be positive";
    {
      engine;
      rate_per_s;
      burst;
      tokens = burst;
      last_refill = Engine.now engine;
      throttle_ns = 0;
    }

  let refill t =
    let now = Engine.now t.engine in
    let dt = Time.to_float_s (now - t.last_refill) in
    t.tokens <- Float.min t.burst (t.tokens +. (dt *. t.rate_per_s));
    t.last_refill <- now

  (* Block until [n] tokens are available, then consume them. *)
  let rec take t n =
    refill t;
    if t.tokens >= n then t.tokens <- t.tokens -. n
    else begin
      let deficit = n -. t.tokens in
      let wait = Time.of_float_s (deficit /. t.rate_per_s) in
      let wait = Time.max wait (Time.us 1) in
      t.throttle_ns <- t.throttle_ns + wait;
      Engine.delay wait;
      take t n
    end

  let throttle_ns t = t.throttle_ns
end

module Wfq = struct
  (* Weighted fair queueing with per-item finish tags (virtual time).
     Flows are VMs; item cost is the router's resource estimate for the
     forwarded call.  A flow is a handle its owner (the router's
     connection) holds: the scheduler keeps no table of flows.

     Push and pop allocate one queue cell per item and nothing else: the
     items' tags and costs live in flat per-flow float rings that run in
     step with the payload queue, and the scheduler's float state sits in
     all-float records, so no assignment boxes.

     A pop looks only at backlogged flows: they sit in a dense array,
     each flow holding its index there, so a scheduler that has admitted
     thousands of flows but has one busy pays for one. *)

  type clock = {
    mutable vtime : float;
    mutable best_tag : float;  (** [min_flow]'s running minimum *)
  }

  type rate = { mutable weight : float; mutable last_tag : float }

  type 'a flow = {
    id : int;  (** breaks ties between equal head tags *)
    rate : rate;
    payloads : 'a Queue.t;
    mutable tags : float array;
    mutable costs : float array;
    mutable head : int;  (** ring index of the payload queue's head *)
    mutable slot : int;  (** index in [backlogged]; -1 while empty *)
  }

  type 'a t = {
    clock : clock;
    mutable backlogged : 'a flow array;
        (** the flows with queued items: the first [n_backlogged] cells *)
    mutable n_backlogged : int;
    popper : unit Engine.waitq;  (** the blocked popper, if any *)
    mutable enqueued : int;
    mutable dequeued : int;
    none : 'a flow;  (** stands for "no flow" *)
  }

  let ring_at f i = (f.head + i) land (Array.length f.tags - 1)

  (* [Float.max] for the scheduler's never-NaN operands, inlined so that
     no float is boxed to pass it. *)
  let[@inline] fmax (a : float) b = if b > a then b else a

  let make_flow id weight =
    {
      id;
      rate = { weight; last_tag = 0.0 };
      payloads = Queue.create ();
      tags = Array.make 4 0.0;
      costs = Array.make 4 0.0;
      head = 0;
      slot = -1;
    }

  let create () =
    let none = make_flow (-1) 1.0 in
    let t =
      {
        clock = { vtime = 0.0; best_tag = 0.0 };
        backlogged = Array.make 4 none;
        n_backlogged = 0;
        popper = Engine.waitq ();
        enqueued = 0;
        dequeued = 0;
        none;
      }
    in
    t

  let add_flow (_ : 'a t) ~flow_id ~weight =
    if weight <= 0.0 then invalid_arg "Wfq.add_flow: weight must be positive";
    make_flow flow_id weight

  (* A flow's first queued item puts it in the backlogged set. *)
  let backlog_flow t f =
    let n = t.n_backlogged in
    if n = Array.length t.backlogged then begin
      let a = Array.make (2 * n) t.none in
      Array.blit t.backlogged 0 a 0 n;
      t.backlogged <- a
    end;
    t.backlogged.(n) <- f;
    f.slot <- n;
    t.n_backlogged <- n + 1

  (* Its last one leaves it: the set's last flow takes over its cell. *)
  let idle_flow t f =
    let n = t.n_backlogged - 1 in
    let last = t.backlogged.(n) in
    t.backlogged.(f.slot) <- last;
    last.slot <- f.slot;
    t.backlogged.(n) <- t.none;
    f.slot <- -1;
    t.n_backlogged <- n

  (* Append an item's tag and cost behind the queued ones; the rings
     double (keeping a power-of-two size) when full. *)
  let[@inline] ring_push f tag cost =
    let n = Queue.length f.payloads and cap = Array.length f.tags in
    if n = cap then begin
      let copy a =
        Array.init (2 * cap) (fun i ->
            if i < n then a.((f.head + i) land (cap - 1)) else 0.0)
      in
      let tags = copy f.tags and costs = copy f.costs in
      f.tags <- tags;
      f.costs <- costs;
      f.head <- 0
    end;
    let i = ring_at f n in
    f.tags.(i) <- tag;
    f.costs.(i) <- cost

  (* Weight changes take effect immediately: the flow's pending items
     are re-tagged in FIFO order as if freshly enqueued at the current
     scheduler virtual time under the new weight, so a backlogged flow
     does not keep draining at the old rate until its queue empties. *)
  let set_weight t f ~weight =
    if weight <= 0.0 then invalid_arg "Wfq.set_weight: weight must be positive";
    f.rate.weight <- weight;
    let n = Queue.length f.payloads in
    if n > 0 then begin
      let last = ref t.clock.vtime in
      for i = 0 to n - 1 do
        let j = ring_at f i in
        let tag = !last +. (fmax 1.0 f.costs.(j) /. weight) in
        last := tag;
        f.tags.(j) <- tag
      done;
      f.rate.last_tag <- !last
    end

  let flow_weight f = f.rate.weight

  let push t f ~cost payload =
    let start = fmax t.clock.vtime f.rate.last_tag in
    let tag = start +. (fmax 1.0 cost /. f.rate.weight) in
    f.rate.last_tag <- tag;
    ring_push f tag cost;
    if f.slot < 0 then backlog_flow t f;
    Queue.push payload f.payloads;
    t.enqueued <- t.enqueued + 1;
    if Engine.parked t.popper then Engine.wake t.popper ()

  (* The backlogged flow whose head has the smallest finish tag, the
     lowest flow id among equal tags, or [none]. *)
  let min_flow t =
    match t.n_backlogged with
    | 0 -> t.none
    | 1 -> t.backlogged.(0)
    | n ->
        let a = t.backlogged in
        let best = ref a.(0) in
        t.clock.best_tag <- a.(0).tags.(a.(0).head);
        for i = 1 to n - 1 do
          let f = a.(i) in
          let tag = f.tags.(f.head) in
          if tag < t.clock.best_tag || (tag = t.clock.best_tag && f.id < !best.id)
          then begin
            best := f;
            t.clock.best_tag <- tag
          end
        done;
        !best

  (* Blocking: the flow whose head item goes next. *)
  let rec next t =
    let f = min_flow t in
    if f != t.none then f
    else begin
      if Engine.parked t.popper then
        invalid_arg "Wfq.pop_payload: concurrent poppers unsupported";
      Engine.park t.popper;
      next t
    end

  let dequeue t f =
    let tag = f.tags.(f.head) in
    f.head <- ring_at f 1;
    t.clock.vtime <- fmax t.clock.vtime tag;
    t.dequeued <- t.dequeued + 1;
    let payload = Queue.pop f.payloads in
    if Queue.is_empty f.payloads then idle_flow t f;
    payload

  (* Blocking pop: the payload with the smallest finish tag. *)
  let pop_payload t = dequeue t (next t)
  let backlog t = t.enqueued - t.dequeued

  (* Remove a flow, handing back its queued (payload, cost) items in
     FIFO order.  The items stop counting toward [backlog]; the caller
     re-enqueues them elsewhere (the router uses this to re-steer a VM
     onto another backend's scheduler) or drops them. *)
  let remove_flow t f =
    let drained =
      List.mapi
        (fun i p -> (p, f.costs.(ring_at f i)))
        (List.of_seq (Queue.to_seq f.payloads))
    in
    t.dequeued <- t.dequeued + Queue.length f.payloads;
    if f.slot >= 0 then idle_flow t f;
    Queue.clear f.payloads;
    drained
end

module Breaker = struct
  (* Per-VM error-budget circuit breaker: [failure_threshold] fault
     replies within a sliding [cooldown_ns] window trip the breaker
     open; while open, new calls are rejected at admission.  After
     [cooldown_ns] the breaker half-opens and admits exactly one probe
     call — a clean reply closes it, another fault re-opens it
     (restarting the cooldown).

     The budget is windowed, not consecutive: a faulting guest's error
     replies are interleaved with successful replies and async
     acknowledgements, each recorded as a success, so a consecutive
     count would never trip on real traffic shapes. *)

  type state = Closed | Open | Half_open

  type config = { failure_threshold : int; cooldown_ns : Time.t }

  let default_config = { failure_threshold = 3; cooldown_ns = Time.ms 10 }

  type t = {
    engine : Engine.t;
    config : config;
    mutable state : state;
    failures : Time.t Queue.t;  (** fault-reply timestamps, pruned to window *)
    mutable opened_at : Time.t;
    mutable probe_in_flight : bool;
    mutable trips : int;  (** transitions into [Open] *)
    mutable rejections : int;  (** calls refused at admission *)
  }

  let create engine config =
    if config.failure_threshold <= 0 then
      invalid_arg "Breaker.create: failure_threshold must be positive";
    {
      engine;
      config;
      state = Closed;
      failures = Queue.create ();
      opened_at = 0;
      probe_in_flight = false;
      trips = 0;
      rejections = 0;
    }

  (* Open -> Half_open happens lazily, on the first admission attempt
     after the cooldown elapses. *)
  let refresh t =
    match t.state with
    | Open
      when Engine.now t.engine - t.opened_at >= t.config.cooldown_ns ->
        t.state <- Half_open;
        t.probe_in_flight <- false
    | _ -> ()

  let state t =
    refresh t;
    t.state

  (* May this call proceed?  [Half_open] admits one probe at a time. *)
  let admit t =
    refresh t;
    match t.state with
    | Closed -> true
    | Open ->
        t.rejections <- t.rejections + 1;
        false
    | Half_open ->
        if t.probe_in_flight then begin
          t.rejections <- t.rejections + 1;
          false
        end
        else begin
          t.probe_in_flight <- true;
          true
        end

  let trip t =
    t.state <- Open;
    t.opened_at <- Engine.now t.engine;
    t.probe_in_flight <- false;
    t.trips <- t.trips + 1

  (* Drop failure timestamps that have aged out of the window. *)
  let prune t =
    let now = Engine.now t.engine in
    while
      (not (Queue.is_empty t.failures))
      && now - Queue.peek t.failures > t.config.cooldown_ns
    do
      ignore (Queue.pop t.failures)
    done

  let record_failure t =
    refresh t;
    match t.state with
    | Half_open -> trip t (* failed probe: straight back to open *)
    | Closed ->
        Queue.push (Engine.now t.engine) t.failures;
        prune t;
        if Queue.length t.failures >= t.config.failure_threshold then begin
          Queue.clear t.failures;
          trip t
        end
    | Open -> ()

  let record_success t =
    refresh t;
    match t.state with
    | Half_open ->
        (* Successful probe: service is healthy again. *)
        t.state <- Closed;
        Queue.clear t.failures;
        t.probe_in_flight <- false
    | Closed ->
        (* Successes don't erase the failure budget: a burst of fault
           replies trips the breaker even when healthy async
           acknowledgements interleave with it. *)
        prune t
    | Open -> ()

  (* Administrative clear: force the breaker closed. *)
  let reset t =
    t.state <- Closed;
    Queue.clear t.failures;
    t.probe_in_flight <- false

  let trips t = t.trips
  let rejections t = t.rejections
end

module Quota = struct
  (* Windowed budget: a VM may consume [budget] cost units per window;
     excess calls stall until the next window. *)

  type t = {
    engine : Engine.t;
    window_ns : Time.t;
    budget : float;
    mutable window_start : Time.t;
    mutable used : float;
  }

  let create engine ~window_ns ~budget =
    if budget <= 0.0 then invalid_arg "Quota.create: budget must be positive";
    {
      engine;
      window_ns;
      budget;
      window_start = Engine.now engine;
      used = 0.0;
    }

  let rotate t =
    let now = Engine.now t.engine in
    if now - t.window_start >= t.window_ns then begin
      (* Skip forward a whole number of windows. *)
      let periods = (now - t.window_start) / t.window_ns in
      t.window_start <- t.window_start + (periods * t.window_ns);
      t.used <- 0.0
    end

  let rec charge t cost =
    rotate t;
    if t.used +. cost <= t.budget then t.used <- t.used +. cost
    else if t.used = 0.0 then
      (* The call is bigger than a whole window's budget, so no amount
         of waiting would ever fit it.  Admit it at the fresh window
         and overdraw: the quota degrades to one oversized call per
         window instead of stalling the VM forever. *)
      t.used <- cost
    else begin
      let now = Engine.now t.engine in
      Engine.delay (t.window_start + t.window_ns - now);
      charge t cost
    end
end
