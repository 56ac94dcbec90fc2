(** Record/replay support for VM migration (§4.3).

    Calls are recorded according to their spec'd record class, with
    Nooks-style object tracking: deallocating an object prunes its
    allocation and modification history, so the replay log stays
    proportional to live state, not execution length. *)

module Plan = Ava_codegen.Plan

type recorded = {
  rc_fn : string;
  rc_args : Wire.value list;
  rc_class : Ava_spec.Ast.record_class;
  rc_primary : int option;
      (** the tracked id this call allocates or modifies *)
}

type t

val create : unit -> t

val observe : ?allocated:int -> t -> Plan.call_plan -> Message.call -> unit
(** Record one successfully executed call.  [allocated] is the virtual
    id the server assigned when the call created an object (its return
    handle), which argument inspection cannot recover. *)

val replay_log : t -> recorded list
(** In execution order. *)

val log_length : t -> int
val recorded_count : t -> int
val pruned_count : t -> int

val live_objects : t -> int list
(** Tracked ids whose allocation is still in the log. *)
