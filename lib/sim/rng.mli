(** Deterministic splitmix64 generator.

    Every stochastic choice in the simulator draws from an explicit
    [Rng.t] so that experiments replay exactly given the same seed. *)

type t

val create : int64 -> t

val next : t -> int64
(** The next raw 64-bit value. *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t bound]: uniform in [0, bound). *)

val bool : t -> bool

val split : t -> t
(** An independent stream (for per-VM or per-device streams). *)

val exponential_ns : t -> mean_ns:int -> Time.t
(** Exponentially distributed duration with the given mean. *)

val uniform_ns : t -> lo:Time.t -> hi:Time.t -> Time.t
(** Uniform duration in [lo, hi]. *)

val pareto : t -> alpha:float -> xm:float -> float
(** Pareto-distributed value with tail index [alpha] and scale (minimum)
    [xm]: P(X > x) = (xm / x)^alpha.  Heavy-tailed session lengths. *)
