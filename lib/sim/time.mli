(** Virtual time for the discrete-event engine.

    All simulated durations and instants are integer nanoseconds, keeping
    event ordering exact and every experiment bit-for-bit deterministic. *)

type t = int
(** A virtual instant or duration, in nanoseconds. *)

val zero : t

(** {1 Constructors} *)

val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t

val of_float_ns : float -> t
(** Rounded to the nearest nanosecond; likewise for the other
    [of_float_*] constructors. *)

val of_float_us : float -> t
val of_float_ms : float -> t
val of_float_s : float -> t

(** {1 Conversions} *)

val to_float_ns : t -> float
val to_float_us : t -> float
val to_float_s : t -> float

(** {1 Arithmetic} *)

val add : t -> t -> t
val max : t -> t -> t

val of_bandwidth : bytes:int -> bytes_per_s:float -> t
(** Duration of moving [bytes] at [bytes_per_s]; at least 1 ns whenever
    any data moves, so transfers never appear free. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Human-readable with an adaptive unit (ns/us/ms/s). *)

val to_string : t -> string
