(* Bounded/unbounded FIFO channel between processes.

   [recv] blocks while empty; [send] blocks while a bounded channel is
   full, giving natural backpressure for command queues and rings.

   Parked senders and receivers sit in engine wait queues: waking the
   oldest is O(1) and parking allocates no closure or queue cell. *)

type 'a t = {
  capacity : int option;
  items : 'a Queue.t;
  recv_waiters : 'a Engine.waitq;
  send_waiters : unit Engine.waitq;
  mutable closed : bool;
}

exception Closed

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Channel.create: capacity must be >= 1"
  | _ -> ());
  {
    capacity;
    items = Queue.create ();
    recv_waiters = Engine.waitq ();
    send_waiters = Engine.waitq ();
    closed = false;
  }

let is_full t =
  match t.capacity with None -> false | Some c -> Queue.length t.items >= c

let rec send t v =
  if t.closed then raise Closed;
  if Engine.parked t.recv_waiters then
    (* Direct handoff: the value goes straight to the oldest parked
       receiver without touching the item queue. *)
    Engine.wake t.recv_waiters v
  else if is_full t then begin
    Engine.park t.send_waiters;
    send t v
  end
  else Queue.push v t.items

let try_send t v =
  if t.closed then raise Closed;
  if Engine.parked t.recv_waiters then begin
    Engine.wake t.recv_waiters v;
    true
  end
  else if is_full t then false
  else begin
    Queue.push v t.items;
    true
  end

let recv t =
  if not (Queue.is_empty t.items) then begin
    let v = Queue.pop t.items in
    if Engine.parked t.send_waiters then Engine.wake t.send_waiters ();
    v
  end
  else if t.closed then raise Closed
  else Engine.park t.recv_waiters

let try_recv t =
  if Queue.is_empty t.items then None
  else begin
    let v = Queue.pop t.items in
    if Engine.parked t.send_waiters then Engine.wake t.send_waiters ();
    Some v
  end

(* Close the channel: subsequent sends raise; blocked receivers stay
   blocked on purpose (a closed command stream simply stops). *)
let close t = t.closed <- true
