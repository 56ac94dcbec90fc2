(** Inception Net v3 on the Movidius NCS (Figure 5's rightmost bar).

    The layer schedule coarsely follows the published architecture:
    ~48 weighted layers, ~5.7 GFLOPs per 299x299x3 inference, a ~90 MB
    graph file, 1000-way output.  The NCSDK usage pattern is
    LoadTensor / GetResult pairs over one allocated graph. *)

exception Api_failure of string

val layer_flops : float list
val output_bytes : int

val graph_data : unit -> bytes
(** The encoded graph file (see {!Ava_simnc.Graphdef}). *)

val run : ?inferences:int -> (module Ava_simnc.Api.S) -> unit
(** Open the stick, upload the graph, stream [inferences] (default 20)
    inferences, tear down. *)
