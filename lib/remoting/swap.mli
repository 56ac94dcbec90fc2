(** Buffer-granularity device-memory swapping (§4.3).

    Swapping whole buffer objects — whose sizes and lifetimes the spec
    exposes — avoids out-of-memory failures for contending guests at far
    lower overhead than page- or chunk-based schemes.  This manager
    tracks residency and decides LRU evictions; data movement and its
    timing are the caller's callbacks. *)

type t

val create :
  capacity:int ->
  evict:(key:int -> bytes:int -> unit) ->
  restore:(key:int -> bytes:int -> unit) ->
  t

val resident_bytes : t -> int
val evictions : t -> int
val restores : t -> int
val oom_averted : t -> int
val tracked : t -> int

val add : t -> key:int -> bytes:int -> (unit, [ `Too_big ]) result
(** Track a new buffer, evicting LRU victims to make room.
    @raise Invalid_argument on a duplicate key. *)

val touch : t -> key:int -> (unit, [ `Unknown | `Cannot_make_room ]) result
(** Mark use and ensure residency, restoring (and evicting others) if
    needed. *)

val pin : t -> key:int -> unit
(** Exclude from eviction (active working sets during kernel runs). *)

val unpin : t -> key:int -> unit
val remove : t -> key:int -> unit

val remove_if : t -> (int -> bool) -> unit
(** [remove] every tracked key satisfying the predicate. *)

val is_resident : t -> key:int -> bool

val check_invariants : t -> bool
(** Residency accounting adds up and never exceeds capacity. *)
