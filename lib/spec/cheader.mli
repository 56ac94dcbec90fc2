(** Parser for the C-header subset CAvA consumes.

    Supported declarations: integer [#define]s, scalar typedefs, opaque
    handle typedefs ([typedef struct _tag *name;]) and function
    declarations.  This is the "unmodified API header" of the AvA
    workflow — no AvA annotations appear here. *)

open Ast

type fn_decl = {
  d_name : string;
  d_ret : ctype;
  d_params : (string * ctype) list;
}

type t = {
  h_typedefs : (string * ctype) list;  (** typedef name → underlying type *)
  h_handles : string list;  (** typedef names that are opaque handles *)
  h_structs : (string * (string * ctype) list) list;
      (** typedef'd struct name → fields *)
  h_constants : (string * int) list;
  h_decls : fn_decl list;
}

val empty : t

val is_handle : t -> ctype -> bool
val find_struct : t -> string -> (string * ctype) list option
val is_struct : t -> ctype -> bool

val parse_type : t -> Cursor.t -> ctype
(** Parse one type occurrence (optional [const], base type, stars);
    shared with the spec parser.
    @raise Cursor.Parse_error on unknown types. *)

val parse_params : t -> Cursor.t -> (string * ctype) list
(** Parse a parenthesized parameter list (possibly [void]). *)

val parse_into : t -> string -> (t, string) result
(** Parse a header on top of previously accumulated declarations (so a
    spec can include several headers). *)

val parse : string -> (t, string) result
val find_decl : t -> string -> fn_decl option
