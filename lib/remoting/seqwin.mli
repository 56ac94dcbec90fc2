(** A per-VM seq window: one cell per seq of [\[base, top)], at
    [seq land (cap - 1)] of a ring that doubles when a seq lands a full
    capacity past the base.  Every cell outside the window reads as the
    window's [empty] cell.

    The router keeps one per VM (queued, in flight, answered or
    rejected), and so does the API server (parked, skipped,
    acknowledged or replied: its reply log).  Both free cells by the
    one horizon rule of this module: the base passes a resolved cell
    once it is {!horizon} behind the newest seq the window has seen,
    and waits at an unresolved one (a hole).  The server applies the
    rule when it sees a new seq; the router also applies it when a
    reply or an acknowledgement flows back.

    Invariant: a seq below the server's base is below the router's base
    too, unless its answer (a reply, or an acknowledgement mark past it)
    is still on its way to the router.  The server sees only seqs the
    router forwarded or skipped, so its newest never passes the
    router's; it resolves a seq only after the router has rejected it
    or before its answer reaches the router, which then resolves it and
    passes it.  So every copy the router forwards (at or above its
    base) still finds its answer in the server's window, or its answer
    is already in flight. *)

type 'a t

val horizon : int
(** How far behind the newest seq a resolved cell is kept: 4096, far
    above any in-flight window. *)

val max_span : int
(** [1 lsl 20]: a seq this far past the window is no stub's; each side
    drops it rather than grow the ring without bound. *)

val create : empty:'a -> resolved:('a -> bool) -> 'a t
(** An empty window at seq 0.  [resolved empty] must be [false]. *)

val base : 'a t -> int
(** The lowest seq the window still knows. *)

val top : 'a t -> int
(** One past the newest seq the window has seen. *)

val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit
(** Store a cell for a seq in the window; a seq outside it is
    ignored. *)

val extend : 'a t -> int -> unit
(** See a seq: one at or past [top] becomes the newest, the base
    passes what the horizon rule frees, and the ring grows to fit. *)

val advance : 'a t -> unit
(** Apply the horizon rule against the newest seq seen. *)

val rebuild : 'a t -> base:int -> top:int -> (int -> 'a) -> unit
(** Re-lay the window over [\[base, top)], each cell from the function,
    which may still read the old window. *)

val clear : 'a t -> unit
(** Forget every cell; the base stays. *)

val fold : 'a t -> (int -> 'a -> 'b -> 'b) -> 'b -> 'b
(** Fold over the window from its newest seq down to its base, so
    consing builds a seq-ordered list. *)
