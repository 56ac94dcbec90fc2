(** Pretty-printer: renders an {!Ast.api_spec} back into CAvA
    specification syntax.  {!Parser.parse} of the output yields an
    equivalent spec (property-tested). *)

open Ast

val pp_spec : Format.formatter -> api_spec -> unit
val spec_to_string : api_spec -> string

val pp_guidance : Format.formatter -> api_spec -> unit
(** The developer-facing report of open questions. *)
