(** Serialized graph-file format understood by the simulated stick.

    Layout (little-endian):
    ["NCSG" | n_layers:i32 | output_bytes:i32 | flops:f64 * n | padding].

    Padding inflates the file to the declared size so graph upload time
    matches a real network's weight volume (Inception v3 is ~90 MB). *)

type t = { layer_flops : float list; output_bytes : int }

val encode : ?total_bytes:int -> t -> bytes
(** @raise Invalid_argument when [total_bytes] is below the header size. *)

val decode : bytes -> (t, [ `Bad_graph ]) result
