(** The simulated Intel Movidius Neural Compute Stick.

    A USB-attached inference accelerator: graphs upload over USB and
    compile on-stick; inference streams a tensor in, runs the layer
    schedule, streams the result back.  One inference runs at a time.

    The stick computes a real, deterministic function of its input
    (a per-layer rotation-xor) so results can be validated through
    virtualization stacks. *)

open Ava_sim

type graph = {
  graph_id : int;
  graph_bytes : int;
  layer_flops : float list;  (** per-layer multiply-accumulate count *)
}

type t

exception Device_lost
(** Raised by USB operations when the stick is unplugged (or unplugs
    mid-transaction under fault injection).  The device re-enumerates
    on its own after [ncs_reenum_ns]; loaded graphs do not survive. *)

val create : ?timing:Timing.ncs -> ?devfault:Devfault.t -> Engine.t -> t
(** Without [devfault] (the default) behaviour is bit-identical to a
    fault-free stick. *)

val engine : t -> Engine.t
val inferences : t -> int
val live_graphs : t -> int

val plugged : t -> bool
(** Whether the stick is currently enumerated. *)

val load_graph : t -> graph_bytes:int -> layer_flops:float list -> graph
(** Upload and compile a graph; blocks for transfer + parse time.
    @raise Device_lost if the stick is (or becomes) unplugged. *)

val find_graph : t -> int -> graph option

val unload_graph : t -> int -> (unit, [ `Unknown_graph ]) result
(** Remove a resident graph; [Error `Unknown_graph] on an unknown (or
    unplug-wiped) graph id — never an exception, so a buggy guest
    cannot kill a shared API server through a double unload. *)

val infer : t -> graph -> input:bytes -> output_bytes:int -> bytes
(** One inference: tensor in over USB, layer schedule on-stick, result
    back over USB.  Blocks; serialized with other inferences.
    @raise Device_lost if the stick is unplugged or the graph is no
    longer resident. *)
