(* Discrete-event engine with effects-based cooperative processes.

   The engine drains a min-heap of (virtual-time, task) events.  A process
   is an OCaml function run under an effect handler: performing [Delay]
   suspends it and re-schedules its continuation [d] nanoseconds later;
   [Park] suspends it at the tail of a wait queue until some other event
   [wake]s it with a value.  Everything runs on one OS thread, so no
   locking is needed and runs are fully deterministic.

   Four hot-path refinements keep the loop allocation-free without
   touching the determinism contract (events fire in strict (time, seq)
   order):

   - Tasks scheduled at the *current* instant — [delay 0] and every
     [wake] — go to a flat ring buffer instead of the heap,
     turning the dominant immediate-resume traffic from O(log n) sifts
     into O(1) pushes.

   - Tasks scheduled *near* the current instant (within [wheel_window]
     ns ahead) go to a calendar wheel: one FIFO bucket per instant, with
     an occupancy bitmap scanned by next-set-bit to find the next event
     time.  Short delays — the common case in device simulations — cost
     O(1) pushes and pops instead of O(log n) sifts.  Only far-future
     events (watchdogs, long kernels) reach the heap.

   - A task is an untagged [Obj.t] — a [unit -> unit] closure, a
     [(unit, unit)] continuation suspended by [delay], or a woken
     [waiter] — discriminated by the low two bits of its sequence
     number (seq is shifted left two bits).  The shift preserves (time,
     seq) ordering and saves a 2-word variant box per scheduled event.
     The coercions are confined to [schedule_raw]/[schedule]/
     [schedule_cont]/[wake]/[exec].

   - A [Delay] or [Park] suspension reuses a preallocated effect value,
     handler acceptor and [Some] cell, and a park links the process's
     own waiter record (made once, at [spawn]) into its wait queue, so
     neither allocates anything beyond what the effects runtime itself
     needs.

   Why draining heap-then-bucket-then-ring at an instant [T] is exactly
   (time, seq) order: heap entries for [T] were scheduled when [T] was
   at least [wheel_window] ahead of the clock, bucket entries when it
   was nearer but still in the future, and ring entries during instant
   [T] itself.  The global sequence counter is monotone in real
   execution order, so every heap entry at [T] precedes every bucket
   entry at [T], which precedes every ring entry.  Each container is
   itself seq-ordered (the heap by its comparator, bucket and ring by
   FIFO insertion), so the concatenation is the strict (time, seq)
   order.  The same argument shows a bucket never mixes instants: an
   entry for [T + wheel_window] can only be scheduled strictly after
   instant [T] has drained, because the wheel accepts only strictly
   nearer events ([at - now < wheel_window]). *)

exception Stalled of string

(* Low two bits of a stored sequence number: 0 = [unit -> unit] closure,
   1 = [(unit, unit) Effect.Deep.continuation] suspended by [delay],
   2 = woken [waiter]. *)
let tag_fn = 0
let tag_cont = 1
let tag_wake = 2

(* Calendar-wheel geometry: events scheduled less than [wheel_window] ns
   ahead take the O(1) bucket path; the rest go to the overflow heap.
   One bucket per instant; the occupancy bitmap packs 32 instants per
   word so the next event time is a short scan plus count-trailing-zeros
   rather than a sift. *)
let wheel_window = 1024
let wheel_mask = wheel_window - 1
let bitmap_words = wheel_window / 32

type t = {
  mutable now : Time.t;
  events : Obj.t Heap.t;
  mutable seq : int;
  (* Ring buffer of tasks scheduled at the current instant, with their
     (tagged) sequence numbers in a parallel array.  Invariant: every
     queued task was scheduled at [now]; the ring is drained before time
     advances. *)
  mutable ring : Obj.t array;
  mutable ring_seq : int array;
  mutable ring_head : int;
  mutable ring_len : int;
  (* Calendar wheel: per-instant FIFO buckets in parallel growable
     arrays, plus total occupancy and the bitmap.  Invariant: a
     non-empty bucket [p] holds events for exactly one instant — the
     unique [T = now + ((p - now) land wheel_mask)] — see the module
     comment. *)
  wb_sq : int array array;
  wb_task : Obj.t array array;
  wb_head : int array;
  wb_len : int array;
  bitmap : int array;
  mutable wheel_len : int;
  (* Preallocated continuation acceptor for the [Delay] effect: the
     handler returns this shared closure (and shared [Some]), so a timer
     suspension allocates no per-perform closure or option. *)
  mutable delay_k : ((unit, unit) Effect.Deep.continuation -> unit) option;
  (* The same for [Park]: it stores the continuation in the waiter the
     handler has just linked at the tail of [pending_queue]. *)
  mutable park_k : ((Obj.t, unit) Effect.Deep.continuation -> unit) option;
  (* Every process's return and exception handlers, shared so a spawn
     allocates only what is its own (waiter, [effc], handler record). *)
  mutable retc : unit -> unit;
  mutable exnc : exn -> unit;
  mutable live_processes : int;
  mutable spawned : int;
  mutable executed : int;
}

(* One per process: its continuation while parked, the value a [wake]
   hands it, and its link in a wait queue (a process parks in one queue
   at a time).  Untyped slots, because one queue type serves every
   ['a waitq]; the mli's phantom parameter keeps [park] and [wake] of
   one queue agreeing on ['a].  [v] is cleared on resume so a woken
   value is not kept past its use; a stale [k] holds nothing, because
   resuming a continuation detaches its stack from it.  The waiter has
   usually been promoted by the time it parks, so every slot written per
   park or wake costs a write barrier; it has no slot they do not need. *)
and waiter = {
  engine : t;
  mutable k : Obj.t;  (* (Obj.t, unit) Effect.Deep.continuation *)
  mutable v : Obj.t;
  mutable next : waiter;
}

type queue = { mutable head : waiter; mutable tail : waiter }
type 'a waitq = queue

(* [Delay] is a *constant* constructor: the delay amount travels through
   [pending_delay] below rather than inside the effect value, so a timer
   suspension performs a preallocated block instead of allocating a
   fresh [Delay d] cell per event.  Safe because [perform] transfers
   control synchronously to the innermost handler on this single thread:
   nothing can run between the store and the handler reading it back. *)
type _ Effect.t += Delay : unit Effect.t | Park : Obj.t Effect.t

let pending_delay = ref 0

let nop : Obj.t = Obj.repr (ignore : unit -> unit)

(* End of every wait queue.  It is never woken, so its engine is never
   read. *)
let rec nil = { engine = Obj.magic (); k = nop; v = nop; next = nil }

(* The queue a [Park] joins, passed like [pending_delay].  The acceptor
   resets it, so no finished engine stays reachable from the global. *)
let no_queue = { head = nil; tail = nil }
let pending_queue = ref no_queue
let now t = t.now

(* {2 Immediate ring} *)

let ring_grow t =
  let cap = Array.length t.ring in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nring = Array.make ncap nop in
  let nseq = Array.make ncap 0 in
  for i = 0 to t.ring_len - 1 do
    nring.(i) <- t.ring.((t.ring_head + i) land (cap - 1));
    nseq.(i) <- t.ring_seq.((t.ring_head + i) land (cap - 1))
  done;
  t.ring <- nring;
  t.ring_seq <- nseq;
  t.ring_head <- 0

let ring_push t task seq =
  if t.ring_len = Array.length t.ring then ring_grow t;
  let i = (t.ring_head + t.ring_len) land (Array.length t.ring - 1) in
  t.ring.(i) <- task;
  t.ring_seq.(i) <- seq;
  t.ring_len <- t.ring_len + 1

let ring_pop t =
  let i = t.ring_head in
  let task = t.ring.(i) in
  t.ring.(i) <- nop;
  t.ring_head <- (i + 1) land (Array.length t.ring - 1);
  t.ring_len <- t.ring_len - 1;
  task

(* {2 Calendar wheel} *)

(* Count trailing zeros of a non-zero 32-bit value (de Bruijn multiply;
   no ctz primitive without an external dependency). *)
let ctz32_table =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let[@inline] ctz32 x =
  Array.unsafe_get ctz32_table ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let wheel_push t p sq task =
  let arr = t.wb_task.(p) in
  let pos = t.wb_head.(p) + t.wb_len.(p) in
  if pos >= Array.length arr then begin
    (* Grow (or re-normalise after a partial drain) to head = 0. *)
    let len = t.wb_len.(p) in
    let ncap = if len * 2 > 8 then len * 2 else 8 in
    let ntask = Array.make ncap nop in
    let nsq = Array.make ncap 0 in
    Array.blit arr (t.wb_head.(p)) ntask 0 len;
    Array.blit t.wb_sq.(p) (t.wb_head.(p)) nsq 0 len;
    t.wb_task.(p) <- ntask;
    t.wb_sq.(p) <- nsq;
    t.wb_head.(p) <- 0
  end;
  let pos = t.wb_head.(p) + t.wb_len.(p) in
  Array.unsafe_set t.wb_task.(p) pos task;
  Array.unsafe_set t.wb_sq.(p) pos sq;
  t.wb_len.(p) <- t.wb_len.(p) + 1;
  t.wheel_len <- t.wheel_len + 1;
  let w = p lsr 5 in
  t.bitmap.(w) <- t.bitmap.(w) lor (1 lsl (p land 31))

(* Next pending wheel instant.  Precondition: [t.wheel_len > 0], which
   guarantees a set bit within one lap of the bitmap. *)
let wheel_next t =
  let bitmap = t.bitmap in
  let s = (t.now + 1) land wheel_mask in
  let w0 = s lsr 5 in
  let bits = Array.unsafe_get bitmap w0 land (-1 lsl (s land 31)) in
  let pos =
    if bits <> 0 then (w0 lsl 5) + ctz32 bits
    else begin
      let w = ref ((w0 + 1) land (bitmap_words - 1)) in
      while Array.unsafe_get bitmap !w = 0 do
        w := (!w + 1) land (bitmap_words - 1)
      done;
      (!w lsl 5) + ctz32 (Array.unsafe_get bitmap !w)
    end
  in
  t.now + ((pos - t.now) land wheel_mask)

(* {2 Scheduling} *)

let schedule_raw t ~at repr tag =
  t.seq <- t.seq + 1;
  let sq = (t.seq lsl 2) lor tag in
  let dist = at - t.now in
  if dist <= 0 then ring_push t repr sq
  else if dist < wheel_window then wheel_push t (at land wheel_mask) sq repr
  else Heap.add t.events ~key:at ~seq:sq repr

let schedule t ~at f = schedule_raw t ~at (Obj.repr (f : unit -> unit)) tag_fn

let schedule_cont t ~at (k : (unit, unit) Effect.Deep.continuation) =
  schedule_raw t ~at (Obj.repr k) tag_cont

(* [if d > 0] rather than [Stdlib.max]: the latter is polymorphic and
   costs a C call per event on the non-flambda compiler. *)
let schedule_after t d f = schedule t ~at:(if d > 0 then t.now + d else t.now) f

let create () =
  let t =
    {
      now = 0;
      events = Heap.create ();
      seq = 0;
      ring = [||];
      ring_seq = [||];
      ring_head = 0;
      ring_len = 0;
      wb_sq = Array.make wheel_window [||];
      wb_task = Array.make wheel_window [||];
      wb_head = Array.make wheel_window 0;
      wb_len = Array.make wheel_window 0;
      bitmap = Array.make bitmap_words 0;
      wheel_len = 0;
      delay_k = None;
      park_k = None;
      retc = ignore;
      exnc = raise;
      live_processes = 0;
      spawned = 0;
      executed = 0;
    }
  in
  t.delay_k <-
    (* The [Some] is preallocated too: the handler returns it on every
       timer suspension, and a fresh option per perform would be a
       third of the event's allocation. *)
    Some
      (fun k ->
        let d = !pending_delay in
        schedule_cont t ~at:(if d > 0 then t.now + d else t.now) k);
  t.park_k <-
    Some
      (fun k ->
        let q = !pending_queue in
        pending_queue := no_queue;
        q.tail.k <- Obj.repr k);
  t.retc <- (fun () -> t.live_processes <- t.live_processes - 1);
  t.exnc <-
    (fun e ->
      t.live_processes <- t.live_processes - 1;
      raise e);
  t

(* Effects performed inside a process. *)

let delay d =
  pending_delay := d;
  Effect.perform Delay

(* {2 Wait queues} *)

let waitq () = { head = nil; tail = nil }
let parked q = q.head != nil

let park (q : 'a waitq) : 'a =
  pending_queue := q;
  Obj.obj (Effect.perform Park)

(* Unlink the oldest waiter and put it on the ring: one seq number, taken
   now, as any same-instant [schedule] would. *)
let wake (q : 'a waitq) (v : 'a) =
  let w = q.head in
  if w == nil then invalid_arg "Engine.wake: no process is parked";
  let n = w.next in
  q.head <- n;
  if n != nil then w.next <- nil;
  w.v <- Obj.repr v;
  let t = w.engine in
  schedule_raw t ~at:t.now (Obj.repr w) tag_wake

let spawn t ?name body =
  ignore name;
  t.spawned <- t.spawned + 1;
  t.live_processes <- t.live_processes + 1;
  let w = { engine = t; k = nop; v = nop; next = nil } in
  let handler =
    {
      Effect.Deep.retc = t.retc;
      exnc = t.exnc;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay ->
              (* Timer fast path: the shared acceptor (allocated once in
                 [create]) reads the amount from [pending_delay] and the
                 continuation itself is the task, so the whole suspension
                 allocates only what the effects runtime needs. *)
              (t.delay_k : ((a, unit) Effect.Deep.continuation -> unit) option)
          | Park ->
              (* Link this process's waiter; the shared acceptor then
                 finds it at the tail. *)
              let q = !pending_queue in
              if q.head == nil then q.head <- w else q.tail.next <- w;
              q.tail <- w;
              t.park_k
          | _ -> None);
    }
  in
  schedule t ~at:t.now (fun () -> Effect.Deep.match_with body () handler)

(* {2 Running} *)

(* Run one task given its tagged sequence number.  The coercions mirror
   the invariants maintained by [schedule]/[schedule_cont]/[wake]. *)
let[@inline] exec t sq repr =
  t.executed <- t.executed + 1;
  let tag = sq land 3 in
  if tag = tag_fn then (Obj.obj repr : unit -> unit) ()
  else if tag = tag_cont then
    Effect.Deep.continue
      (Obj.obj repr : (unit, unit) Effect.Deep.continuation)
      ()
  else
    let w : waiter = Obj.obj repr in
    let k = w.k and v = w.v in
    w.v <- nop;
    Effect.Deep.continue (Obj.obj k : (Obj.t, unit) Effect.Deep.continuation) v

(* Drain the wheel bucket [p] in FIFO order.  Callable only once the
   clock sits at the bucket's instant (see [drain_instant]): no new
   entries can join [p] while it drains — same-instant work goes to the
   ring and instant-plus-window work to the heap. *)
let drain_bucket t p =
  let wb_len = t.wb_len and wb_head = t.wb_head in
  while Array.unsafe_get wb_len p > 0 do
    let h = Array.unsafe_get wb_head p in
    let tasks = Array.unsafe_get t.wb_task p in
    let sq = Array.unsafe_get (Array.unsafe_get t.wb_sq p) h in
    let task = Array.unsafe_get tasks h in
    Array.unsafe_set tasks h nop;
    Array.unsafe_set wb_head p (h + 1);
    Array.unsafe_set wb_len p (Array.unsafe_get wb_len p - 1);
    t.wheel_len <- t.wheel_len - 1;
    exec t sq task
  done;
  Array.unsafe_set wb_head p 0;
  let w = p lsr 5 in
  t.bitmap.(w) <- t.bitmap.(w) land lnot (1 lsl (p land 31))

(* Next event time across wheel and heap; [max_int] when both are idle.
   Precondition: the ring is empty (the current instant is done). *)
let[@inline] next_event_time t =
  let hk =
    if Heap.is_empty t.events then max_int else Heap.unsafe_min_key t.events
  in
  let wk = if t.wheel_len > 0 then wheel_next t else max_int in
  if hk < wk then hk else wk

(* Advance the clock to instant [tt] and run its heap and bucket phases
   (ring tasks pushed by them are drained by the caller's loop).  Heap
   first, bucket second: heap entries at [tt] always carry smaller
   sequence numbers — see the module comment. *)
let drain_instant t tt =
  t.now <- tt;
  let events = t.events in
  while (not (Heap.is_empty events)) && Heap.unsafe_min_key events = tt do
    let sq = Heap.unsafe_min_seq events in
    exec t sq (Heap.unsafe_pop events)
  done;
  let p = tt land wheel_mask in
  if Array.unsafe_get t.wb_len p > 0 then drain_bucket t p

(* The unbounded and horizon-bounded drains are separate loops so the
   per-event path never re-inspects the [until] option. *)
let rec run_unbounded t =
  if t.ring_len > 0 then begin
    let sq = Array.unsafe_get t.ring_seq t.ring_head in
    exec t sq (ring_pop t);
    run_unbounded t
  end
  else
    let tt = next_event_time t in
    if tt <> max_int then begin
      drain_instant t tt;
      run_unbounded t
    end

let rec run_bounded t h =
  if t.ring_len > 0 then begin
    let sq = Array.unsafe_get t.ring_seq t.ring_head in
    exec t sq (ring_pop t);
    run_bounded t h
  end
  else
    let tt = next_event_time t in
    if tt > h then begin
      if h > t.now then t.now <- h
    end
    else begin
      drain_instant t tt;
      run_bounded t h
    end

(* Drain the event loop.  With [~until], execution stops once the next
   event lies beyond the horizon; the clock is advanced to the horizon
   (never backwards) and pending events are kept for a later [run].  The
   clock also advances to the horizon when the queue drains before
   reaching it. *)
let run ?until t =
  match until with
  | None -> run_unbounded t
  | Some h -> if h >= t.now then run_bounded t h

let live_processes t = t.live_processes
let spawned t = t.spawned
let events_executed t = t.executed

(* Run [body] as a process to completion and return its result; raises
   [Stalled] if the event queue drains while the process is blocked. *)
let run_process t body =
  let result = ref None in
  spawn t (fun () -> result := Some (body ()));
  run t;
  match !result with
  | Some v -> v
  | None -> raise (Stalled "Engine.run_process: process never completed")
