(** First-fit device-memory allocator with free-block coalescing.

    Offsets are plain integers into the device's address space.
    Allocations are rounded up to 256-byte granules, like real GPU
    heaps. *)

type t

val create : int -> t
(** [create capacity] in bytes; [capacity > 0]. *)

val capacity : t -> int
val used : t -> int
val peak_used : t -> int

val alloc : t -> int -> (int, [ `Out_of_memory ]) result
(** Allocate, returning the block's offset. *)

val free : t -> int -> unit
(** Free by offset, coalescing with free neighbours.
    @raise Invalid_argument on an unknown offset. *)

val check_invariants : t -> bool
(** Free list sorted, disjoint and coalesced; accounting adds up.  Used
    by property tests. *)
