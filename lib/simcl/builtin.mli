(** SimCL "compiler": program sources name built-in or synthetic kernels.

    A program source is a ';'-separated list of kernel declarations:

    {v
    builtin vec_add; builtin reduce_sum
    synthetic bfs_step flops=12 bytes=16
    v}

    Built-ins compute a real function over buffer bytes (so correctness
    is checkable through any virtualization stack); synthetic kernels
    declare only per-work-item flop and byte costs. *)

(** A kernel argument resolved against live device state. *)
type resolved_arg =
  | Rmem of bytes  (** the device buffer's backing store *)
  | Rint of int
  | Rfloat of float
  | Rlocal of int

type t = {
  name : string;
  flops_per_item : float;
  bytes_per_item : float;
  run : (resolved_arg array -> int -> unit) option;
      (** [run args work_items]: semantic action, if any *)
}

val parse_source : string -> (t list, string) result
(** Parse a whole program source into its kernel table; empty programs
    are an error. *)

val synthetic_source :
  name:string -> flops_per_item:float -> bytes_per_item:float -> string
(** Source string declaring one timing-only kernel. *)
