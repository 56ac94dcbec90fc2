(** Batch statistics used by experiment reports. *)

val mean : float list -> float
(** Arithmetic mean; [nan] on an empty list. *)
