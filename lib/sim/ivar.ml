(* Write-once cell: readers block until the value is set.

   This is the basic completion primitive: device interrupts, RPC replies
   and OpenCL events are all ivars underneath. *)

type 'a state = Empty of 'a Engine.waitq | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty (Engine.waitq ()) }

let is_filled t = match t.state with Full _ -> true | Empty _ -> false

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
      t.state <- Full v;
      (* Waiters resume at the current instant, in registration order. *)
      while Engine.parked waiters do
        Engine.wake waiters v
      done

let fill_if_empty t v = match t.state with Full _ -> () | Empty _ -> fill t v

let peek t = match t.state with Full v -> Some v | Empty _ -> None

let read t =
  match t.state with Full v -> v | Empty waiters -> Engine.park waiters
