(** Automation metrics (experiment E8): what fraction of the stack CAvA
    derived on its own, and how much the developer wrote.

    Under test: a single developer virtualizes a 39-function OpenCL
    subset in days (vs. GvirtuS's 25 kLoC over person-years), because
    inference covers most functions and the rest need a few declarative
    lines. *)

type fn_effort = {
  fe_name : string;
  fe_auto : bool;  (** preliminary spec was already complete *)
  fe_questions : int;  (** guidance questions inference raised *)
  fe_annotation_lines : int;  (** refined-spec lines the developer wrote *)
}

type report = {
  api_name : string;
  functions : int;
  auto_complete : int;  (** functions needing zero developer input *)
  total_questions : int;
  developer_lines : int;  (** total hand-written annotation lines *)
  spec_lines : int;  (** size of the refined spec *)
  generated_loc : int;  (** C the developer did NOT write *)
  per_fn : fn_effort list;
}

val generated_fraction : report -> float
(** Fraction of the remoting surface generated rather than hand-written:
    generated LoC over generated LoC plus the developer's annotation
    lines (prototypes are copied from the header, and unchanged
    annotations are inference output, so neither counts as authored). *)

val analyze :
  header_source:string -> spec_source:string -> Ava_spec.Ast.api_spec -> report

val pp_report : Format.formatter -> report -> unit
