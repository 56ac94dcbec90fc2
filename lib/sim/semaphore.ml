(* Counting semaphore for exclusive or limited-parallelism resources
   (DMA engines, compute units, USB links). *)

type t = {
  mutable available : int;
  total : int;
  waiters : (unit -> unit) Queue.t; (* oldest first *)
}

let create n =
  if n < 1 then invalid_arg "Semaphore.create: n must be >= 1";
  { available = n; total = n; waiters = Queue.create () }

let available t = t.available

let acquire t =
  if t.available > 0 then t.available <- t.available - 1
  else Engine.await (fun resume -> Queue.push resume t.waiters)

let release t =
  if Queue.is_empty t.waiters then begin
    if t.available >= t.total then
      invalid_arg "Semaphore.release: released more than acquired";
    t.available <- t.available + 1
  end
  else
    (* Hand the slot directly to the oldest waiter. *)
    (Queue.pop t.waiters) ()

let with_acquired t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e
