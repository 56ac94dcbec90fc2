(** The stack's one 64-bit content hash: XXH64, seed 0.

    Used for transfer-cache content addresses and for the fault
    envelope's checksum.  Allocation-free apart from the boxed result. *)

val bytes : bytes -> int64
(** Hash of the whole buffer. *)

val sub : bytes -> pos:int -> len:int -> int64
(** Hash of [len] bytes starting at [pos], without copying them.
    @raise Invalid_argument if the range is outside the buffer. *)
