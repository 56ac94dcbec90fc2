(** Flat 4-ary min-heap keyed by [(time, sequence-number)].

    The sequence number breaks ties so that events scheduled for the same
    instant fire in insertion order, keeping the simulation
    deterministic.  Keys, sequence numbers and payload-slot indices are
    stored in parallel [int array]s and payloads in a stable slot table,
    so {!add} allocates nothing, sifts move only ints (no write
    barrier), and the [unsafe_] accessors let the engine drain events
    without materialising options or entry records.  Payload
    slots are cleared on pop, so a drained heap retains none of the
    popped closures. *)

type 'a entry = { key : int; seq : int; payload : 'a }

type 'a t

val create : unit -> 'a t

val size : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> key:int -> seq:int -> 'a -> unit
(** Amortized O(log n); allocation-free outside capacity growth. *)

val unsafe_min_key : 'a t -> int
val unsafe_min_seq : 'a t -> int

val unsafe_pop : 'a t -> 'a
(** The smallest entry's key and sequence number, and its removal
    (returning the payload, clearing the vacated slot), unchecked and
    allocation-free, for drain loops that have already established
    non-emptiness.  Calling any of them on an empty heap is undefined
    behaviour. *)

val pop : 'a t -> 'a entry option
(** Remove and return the smallest entry (allocating convenience API). *)
