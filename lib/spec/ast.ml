(* Abstract syntax of the CAvA API specification language.

   A specification couples C function declarations (imported from an API
   header) with declarative annotations: parameter directions, buffer
   size expressions, synchrony, resource-usage estimates and record/replay
   classes (Figure 4 of the paper). *)

type ctype =
  | Void
  | Bool
  | Char
  | Int of { signed : bool; bits : int }
  | Float of int  (** bit width *)
  | Named of string  (** typedef name, e.g. [cl_mem] *)
  | Ptr of { const : bool; pointee : ctype }

let rec ctype_to_string = function
  | Void -> "void"
  | Bool -> "bool"
  | Char -> "char"
  | Int { signed = true; bits = 32 } -> "int"
  | Int { signed = false; bits = 32 } -> "unsigned int"
  | Int { signed = true; bits = 64 } -> "long"
  | Int { signed = false; bits = 64 } -> "size_t"
  | Int { signed; bits } ->
      Printf.sprintf "%sint%d_t" (if signed then "" else "u") bits
  | Float 32 -> "float"
  | Float _ -> "double"
  | Named n -> n
  | Ptr { const; pointee } ->
      Printf.sprintf "%s%s *" (if const then "const " else "")
        (ctype_to_string pointee)

(* Integer expressions over parameter names: buffer sizes and resource
   estimates ("the size of ptr is size * 4"). *)
type expr =
  | Const of int
  | Param of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

let rec expr_to_string = function
  | Const n -> string_of_int n
  | Param p -> p
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (expr_to_string a) (expr_to_string b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (expr_to_string a) (expr_to_string b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (expr_to_string a) (expr_to_string b)
  | Div (a, b) -> Printf.sprintf "(%s / %s)" (expr_to_string a) (expr_to_string b)

let rec expr_params = function
  | Const _ -> []
  | Param p -> [ p ]
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) ->
      expr_params a @ expr_params b

(* Evaluate an expression against runtime argument values.  [eval]
   reads each parameter through [lookup a b], which raises
   [Unbound_param] for a parameter with no value; a zero divisor raises
   [Zero_divisor].  Operands are evaluated left to right, so the first
   failure wins.  Both exceptions are constant, so a lookup over a
   preallocated view evaluates without allocating. *)
exception Unbound_param
exception Zero_divisor

let rec eval lookup a b = function
  | Const n -> n
  | Param p -> lookup a b p
  | Add (x, y) ->
      let x = eval lookup a b x in
      x + eval lookup a b y
  | Sub (x, y) ->
      let x = eval lookup a b x in
      x - eval lookup a b y
  | Mul (x, y) ->
      let x = eval lookup a b x in
      x * eval lookup a b y
  | Div (x, y) ->
      let x = eval lookup a b x in
      let y = eval lookup a b y in
      if y = 0 then raise_notrace Zero_divisor else x / y

let env_lookup env () p =
  match List.assoc_opt p env with
  | Some v -> v
  | None -> raise_notrace Unbound_param

(* The first unbound parameter in [expr_params] order is the one [eval]
   reached first. *)
let eval_expr env e =
  match eval env_lookup env () e with
  | v -> Ok v
  | exception Unbound_param ->
      let p = List.find (fun p -> not (List.mem_assoc p env)) (expr_params e) in
      Error (Printf.sprintf "unbound parameter %s" p)
  | exception Zero_divisor -> Error "division by zero"

type direction = In | Out | In_out

let direction_to_string = function
  | In -> "in"
  | Out -> "out"
  | In_out -> "in_out"

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

type record_class =
  | Global_config  (** e.g. cuInit: replay verbatim on migration *)
  | Object_alloc  (** creates a tracked object *)
  | Object_dealloc  (** destroys a tracked object *)
  | Object_modify  (** mutates a tracked object; replay after re-alloc *)
  | No_record

let record_class_to_string = function
  | Global_config -> "global_config"
  | Object_alloc -> "object_alloc"
  | Object_dealloc -> "object_dealloc"
  | Object_modify -> "object_modify"
  | No_record -> "no_record"

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
      (** named resource estimates, e.g. ("bus_bytes", size) *)
  f_inferred : string list;  (** notes on auto-inferred annotations *)
  f_unresolved : string list;  (** questions the developer must answer *)
}

type type_spec = {
  t_name : string;
  t_success : string option;  (** constant denoting success for this type *)
  t_is_handle : bool;
}

type api_spec = {
  api_name : string;
  includes : string list;
  constants : (string * int) list;  (** from header [#define]s *)
  types : type_spec list;
  fns : fn_spec list;
}

let find_fn spec name =
  List.find_opt (fun f -> String.equal f.f_name name) spec.fns

let find_constant spec name = List.assoc_opt name spec.constants
