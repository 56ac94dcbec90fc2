(** Minimal JSON tree, printer and parser.

    Self-contained replacement for a JSON library (the build has none):
    just enough for the bench snapshots and the Chrome trace export,
    and for the tests to read them back.  Printing is deterministic —
    object members keep insertion order — so exports can be golden-
    tested as exact strings. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Accessors} *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_list : t -> t list option

val to_number : t -> float option
(** [Int] and [Float] both read as numbers. *)

val to_string_opt : t -> string option

(** {1 Printing} *)

val to_string : t -> string
(** Compact single-line form. NaN and infinities print as [null]. *)

val to_string_pretty : t -> string
(** 2-space-indented form ending in a newline, for checked-in files. *)

(** {1 Parsing} *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

val parse_opt : string -> t option
