(** Inference of a preliminary specification from an unmodified header.

    CAvA can only exploit what C declarations express: const-ness,
    pointer-ness, typedef opacity and naming conventions.  Everything it
    cannot prove is surfaced in [f_unresolved] — the guidance the
    developer answers when refining the spec (Figure 2 of the paper). *)

open Ast

val guess_record_class : string -> record_class
(** Record-class heuristics from the function name (create/alloc ⇒
    alloc, release/free ⇒ dealloc, set/build/write ⇒ modify, init ⇒
    global config). *)

val preliminary : Cheader.t -> Cheader.fn_decl -> fn_spec
(** The inferred spec for one declaration, with [f_inferred] notes on
    what was derived and [f_unresolved] questions where inference
    failed. *)

(** {1 Explicit annotations} (produced by the spec parser) *)

type param_ann = {
  a_direction : direction option;
  a_kind : param_kind option;
  a_deallocates : bool;
  a_target : bool;
}

val empty_param_ann : param_ann

type fn_ann = {
  an_sync : sync_class option;
  an_stream : string option;  (** [ava_stream(p)] ordering key *)
  an_params : (string * param_ann) list;
  an_resources : (string * expr) list;
  an_record : record_class option;
}

val empty_fn_ann : fn_ann

val apply_annotations : fn_spec -> fn_ann -> fn_spec
(** Refine a preliminary spec with developer annotations; explicitly
    annotated parameters count as resolved (their guidance questions are
    cleared). *)
