(* Write-once cell: readers block until the value is set.

   This is the basic completion primitive: device interrupts, RPC replies
   and OpenCL events are all ivars underneath.

   Most ivars are filled before anyone reads them, so an ivar is two
   fields and nothing else: the value, stored in place once filled, and
   the wait queue, which the first read that has to block makes.  Until
   then [waiters] is the shared [unread] placeholder; once filled it is
   the shared [filled] one.  Neither is ever parked in. *)

type 'a t = { mutable value : 'a; mutable waiters : 'a Engine.waitq }

(* The placeholders are typed [unit] once and cast: a wait queue's type
   parameter only ties [park] to [wake], and nothing parks in these. *)
let unread_q : unit Engine.waitq = Engine.waitq ()
let filled_q : unit Engine.waitq = Engine.waitq ()
let[@inline] unread () : 'a Engine.waitq = Obj.magic unread_q
let[@inline] filled () : 'a Engine.waitq = Obj.magic filled_q

(* An unfilled ivar's [value] is an immediate that is never read, as
   for the heap's empty slots. *)
let create () = { value = Obj.magic 0; waiters = unread () }

let is_filled t = t.waiters == filled ()

let fill t v =
  let waiters = t.waiters in
  if waiters == filled () then invalid_arg "Ivar.fill: already filled";
  t.value <- v;
  t.waiters <- filled ();
  (* Waiters resume at the current instant, in registration order. *)
  while Engine.parked waiters do
    Engine.wake waiters v
  done

let fill_if_empty t v = if not (is_filled t) then fill t v

let read t =
  let waiters = t.waiters in
  if waiters == filled () then t.value
  else if waiters == unread () then begin
    let waiters = Engine.waitq () in
    t.waiters <- waiters;
    Engine.park waiters
  end
  else Engine.park waiters
