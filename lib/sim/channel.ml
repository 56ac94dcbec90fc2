(* Bounded/unbounded FIFO channel between processes.

   [recv] blocks while empty; [send] blocks while a bounded channel is
   full, giving natural backpressure for command queues and rings.

   Parked senders and receivers sit in real FIFO queues: waking the
   oldest waiter is O(1), where the previous reversed-list encoding
   paid two [List.rev] per wake (quadratic once many processes pile up
   on one endpoint).  Wake order is unchanged — oldest parked waiter
   first — so schedules stay bit-identical. *)

type 'a t = {
  capacity : int option;
  items : 'a Queue.t;
  recv_waiters : ('a -> unit) Queue.t;
  send_waiters : (unit -> unit) Queue.t;
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
    recv_waiters = Queue.create ();
    send_waiters = Queue.create ();
    closed = false;
  }

let is_full t =
  match t.capacity with None -> false | Some c -> Queue.length t.items >= c

let rec send t v =
  if t.closed then raise Closed;
  if not (Queue.is_empty t.recv_waiters) then
    (* Direct handoff: the value goes straight to the oldest parked
       receiver without touching the item queue. *)
    (Queue.pop t.recv_waiters) v
  else if is_full t then begin
    Engine.await (fun resume -> Queue.push resume t.send_waiters);
    send t v
  end
  else Queue.push v t.items

let try_send t v =
  if t.closed then raise Closed;
  if not (Queue.is_empty t.recv_waiters) then begin
    (Queue.pop t.recv_waiters) v;
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
    if not (Queue.is_empty t.send_waiters) then (Queue.pop t.send_waiters) ();
    v
  end
  else if t.closed then raise Closed
  else Engine.await (fun resume -> Queue.push resume t.recv_waiters)

let try_recv t =
  if Queue.is_empty t.items then None
  else begin
    let v = Queue.pop t.items in
    if not (Queue.is_empty t.send_waiters) then (Queue.pop t.send_waiters) ();
    Some v
  end

(* Close the channel: subsequent sends raise; blocked receivers stay
   blocked on purpose (a closed command stream simply stops). *)
let close t = t.closed <- true
