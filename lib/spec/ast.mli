(** Abstract syntax of the CAvA API specification language.

    A specification couples C function declarations (imported from an
    API header) with declarative annotations: parameter directions,
    buffer size expressions, synchrony, resource-usage estimates and
    record/replay classes (Figure 4 of the paper). *)

(** The C-type subset CAvA understands. *)
type ctype =
  | Void
  | Bool
  | Char
  | Int of { signed : bool; bits : int }
  | Float of int  (** bit width *)
  | Named of string  (** typedef name, e.g. [cl_mem] *)
  | Ptr of { const : bool; pointee : ctype }

val ctype_to_string : ctype -> string

(** Integer expressions over parameter names: buffer sizes and resource
    estimates ("the size of ptr is size * 4"). *)
type expr =
  | Const of int
  | Param of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

val expr_to_string : expr -> string

val expr_params : expr -> string list
(** Parameter names referenced, with duplicates. *)

exception Unbound_param
exception Zero_divisor

val eval : ('a -> 'b -> string -> int) -> 'a -> 'b -> expr -> int
(** [eval lookup a b e] evaluates [e], reading each parameter through
    [lookup a b].  The lookup raises {!Unbound_param} for a parameter
    with no value; a zero divisor raises {!Zero_divisor}.  Operands are
    evaluated left to right, so the first failure wins.  Allocates
    nothing beyond what [lookup] does. *)

val env_lookup : (string * int) list -> unit -> string -> int
(** The lookup for {!eval} over a named env. *)

val eval_expr : (string * int) list -> expr -> (int, string) result
(** {!eval} against a named env; [Error] on an unbound parameter or a
    zero divisor. *)

type direction = In | Out | In_out

val direction_to_string : direction -> string

type param_kind =
  | Scalar
  | Handle  (** opaque handle passed by value *)
  | Buffer of { len : expr; elem_size : int }
      (** data buffer; total bytes = len * elem_size *)
  | Element of { allocates : bool }
      (** single-element out-pointer, e.g. [cl_event *event] *)
  | Callback
      (** guest function pointer; invoked via server-to-guest upcalls *)
  | Struct_ptr of { fields : (string * ctype) list }
      (** pointer to a by-value struct, marshalled field-wise *)
  | Unknown  (** inference failed; must be refined by the developer *)

type param_spec = {
  p_name : string;
  p_type : ctype;
  p_direction : direction;
  p_kind : param_kind;
  p_deallocates : bool;
  p_target : bool;
      (** the object this call modifies (drives record/replay pruning) *)
}

type sync_class =
  | Sync
  | Async
  | Sync_if of { cond_param : string; cond_const : string }
      (** sync when [cond_param] equals the named constant, else async *)
  | Sync_on of { sync_param : string }
      (** completion point: forwarded synchronously, and the reply is
          withheld until all work ordered before the object named by
          [sync_param] (an event or stream handle) has completed *)

(** Record/replay classes for VM migration (§4.3). *)
type record_class =
  | Global_config  (** e.g. cuInit: replay verbatim on migration *)
  | Object_alloc  (** creates a tracked object *)
  | Object_dealloc  (** destroys a tracked object *)
  | Object_modify  (** mutates a tracked object; replay after re-alloc *)
  | No_record

val record_class_to_string : record_class -> string

type fn_spec = {
  f_name : string;
  f_ret : ctype;
  f_params : param_spec list;
  f_sync : sync_class;
  f_stream : string option;
      (** [ava_stream] ordering key: the handle parameter whose queue
          orders this call relative to other enqueued work *)
  f_record : record_class;
  f_resources : (string * expr) list;
      (** named resource estimates, e.g. [("bus_bytes", size)] *)
  f_inferred : string list;  (** notes on auto-inferred annotations *)
  f_unresolved : string list;  (** questions the developer must answer *)
}

type type_spec = {
  t_name : string;
  t_success : string option;  (** constant denoting success for the type *)
  t_is_handle : bool;
}

type api_spec = {
  api_name : string;
  includes : string list;
  constants : (string * int) list;  (** from header [#define]s *)
  types : type_spec list;
  fns : fn_spec list;
}

val find_fn : api_spec -> string -> fn_spec option
val find_constant : api_spec -> string -> int option
