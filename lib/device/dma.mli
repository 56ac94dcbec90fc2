(** DMA engine: serialized transfers over the host link (PCIe or USB).

    A transfer occupies one of the engine's channels for
    setup + bytes/bandwidth; callers block for the duration. *)

open Ava_sim

type t

val create : ?channels:int -> setup_ns:Time.t -> bytes_per_s:float -> unit -> t
(** [channels] defaults to 2. *)

val of_gpu_timing : Timing.gpu -> t
(** A PCIe engine parameterized from a GPU timing set. *)

val page_size : int
(** 4096: the unit for per-page surcharges. *)

val transfer : ?per_page_ns:Time.t -> t -> bytes:int -> unit
(** Blocking transfer.  [per_page_ns] models shadow-paging/bounce-buffer
    costs imposed by full virtualization.  Must run inside a process. *)

val transfer_sg :
  ?per_page_ns:Time.t -> ?stream:bool -> t -> segs:int list -> unit
(** One scatter-gather descriptor chain over [segs] (segment byte
    counts): a single channel acquisition and setup charge regardless
    of segment count, bandwidth over the summed bytes, and
    [per_page_ns] per page spanned.  With [stream:false] only the
    descriptor/walk overhead is charged — used by SVA resolution, where
    the payload streams later on the device's ordinary DMA path.  Must
    run inside a process. *)

val bytes_moved : t -> int
val transfers : t -> int
