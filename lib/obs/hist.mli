(** Log-bucketed latency histogram (powers-of-two bounds in ns).

    Buckets: [0,1], (1,2], (2,4], ... (2^39,2^40], plus an overflow
    bucket above 2^40 ns.  Only the range of buckets that holds samples
    is stored, growing on demand.  Adding a sample is O(1) and, once
    the range covers it, allocation-free; quantiles are estimated by
    linear interpolation inside the bucket containing the target rank,
    clamped to the observed min/max. *)

type t

val n_finite : int
(** Number of finite buckets (41: upper bounds 2^0 .. 2^40). *)

val n_buckets : int
(** Total bucket count including the overflow bucket. *)

val bound : int -> int
(** [bound i] is the inclusive upper bound (ns) of finite bucket [i].
    @raise Invalid_argument outside [0, n_finite). *)

val bucket_index : int -> int
(** Index of the bucket a sample lands in (negative samples clamp to 0;
    values above the last finite bound land in the overflow bucket). *)

val create : unit -> t
val add : t -> int -> unit

val count : t -> int
val sum : t -> float
val min_value : t -> int
val max_value : t -> int

val bucket_counts : t -> int array
(** Copy of the per-bucket counts; index [n_finite] is overflow. *)

val merge : into:t -> t -> unit

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]; [nan] on an empty histogram.
    @raise Invalid_argument if [q] is outside [0,1]. *)

type summary = {
  h_count : int;
  h_sum_ns : float;
  h_mean_ns : float;
  h_min_ns : float;
  h_max_ns : float;
  h_p50_ns : float;
  h_p95_ns : float;
  h_p99_ns : float;
}

val empty_summary : summary
val summary : t -> summary
val pp_summary : Format.formatter -> summary -> unit
