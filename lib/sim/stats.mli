(** Online and batch statistics used by experiment reports. *)

(** Welford's online mean/variance. *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end

val percentile : float list -> float -> float
(** [percentile samples p] with linear interpolation, [p] in [0, 100].
    [nan] on an empty list. *)

val mean : float list -> float
val geomean : float list -> float

type summary = {
  count : int;
  sum : float;
  avg : float;
  std : float;
  minimum : float;
  maximum : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : float list -> summary
