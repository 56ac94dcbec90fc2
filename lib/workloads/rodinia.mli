(** Rodinia-shaped OpenCL workloads (Che et al., IISWC '09) — the ten
    benchmarks of Figure 5.

    Each benchmark reproduces the call-graph {e shape} of its namesake:
    iteration counts, kernel-launch counts, argument-update patterns,
    buffer sizes and synchronization points (including the Rodinia
    harnesses' [clFinish]-around-phases timing barriers).  Kernel
    durations are synthetic; relative virtualization overhead is a
    function of the call mix, not of what the kernel computes. *)

type benchmark = {
  name : string;
  description : string;
  run : (module Ava_simcl.Api.S) -> unit;
      (** Run to completion against any SimCL implementation; raises
          {!Clutil.Api_failure} on API errors. *)
}

val all : benchmark list
(** backprop, bfs, gaussian, heartwall, hotspot, lud, nn, nw,
    pathfinder, srad. *)

val find : string -> benchmark option
