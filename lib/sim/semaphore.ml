(* Counting semaphore for exclusive or limited-parallelism resources
   (DMA engines, compute units, USB links). *)

type t = {
  mutable available : int;
  total : int;
  waiters : unit Engine.waitq;
}

let create n =
  if n < 1 then invalid_arg "Semaphore.create: n must be >= 1";
  { available = n; total = n; waiters = Engine.waitq () }

let available t = t.available

let acquire t =
  if t.available > 0 then t.available <- t.available - 1
  else Engine.park t.waiters

let release t =
  if not (Engine.parked t.waiters) then begin
    if t.available >= t.total then
      invalid_arg "Semaphore.release: released more than acquired";
    t.available <- t.available + 1
  end
  else
    (* Hand the slot directly to the oldest waiter. *)
    Engine.wake t.waiters ()

let with_acquired t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e
