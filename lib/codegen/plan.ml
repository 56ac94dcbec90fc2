(* CAvA backend, part 1: compile a refined specification into an
   executable *marshalling plan*.

   The plan is the semantic content of the code CAvA would generate: for
   every API function it fixes argument directions and byte counts, the
   synchrony decision, the record/replay class and the resource-usage
   estimates.  AvA's API-agnostic runtime (see {!Ava_remoting}) is driven
   entirely by this table — nothing in the runtime knows OpenCL from
   MVNC. *)

open Ava_spec.Ast

type arg_action =
  | Pass_scalar  (** by-value integer/float *)
  | Pass_handle  (** opaque handle forwarded verbatim *)
  | Copy_in_buffer of { len : expr; elem_size : int }
  | Alloc_out_buffer of { len : expr; elem_size : int }
  | Copy_in_out_buffer of { len : expr; elem_size : int }
  | In_element  (** single-element input pointer *)
  | Out_element of { allocates : bool }
  | In_out_element
  | Pass_callback  (** guest callback id; the server upcalls through it *)
  | In_struct of int  (** by-value struct input; field count *)
  | Out_struct of int  (** struct output; field count *)

type sync_plan =
  | Always_sync
  | Always_async
  | Sync_when_eq of { sp_param : string; sp_value : int }
  | Sync_on_completion of { sp_key : string }
      (** forwarded synchronously; the reply is withheld until work
          ordered before the named handle (event/stream) completes *)

type call_plan = {
  cp_name : string;
  cp_sync : sync_plan;
  cp_stream : string option;
      (** [ava_stream] ordering key: the handle parameter whose queue
          orders this call's server-side execution *)
  cp_params : (string * arg_action) list;
  cp_arity : int;  (** [List.length cp_params], for per-call verification *)
  cp_record : record_class;
  cp_resources : (string * expr) list;
  cp_dealloc_params : string list;
      (** parameters whose handle is deallocated by this call *)
  cp_target_param : string option;
      (** the parameter denoting the object this call modifies *)
}

type t = {
  plan_api : string;
  plans : (string, call_plan) Hashtbl.t;
  order : string list;
}

let compile_param p =
  match (p.p_kind, p.p_direction) with
  | Scalar, _ -> Ok Pass_scalar
  | Handle, _ -> Ok Pass_handle
  | Buffer { len; elem_size }, In -> Ok (Copy_in_buffer { len; elem_size })
  | Buffer { len; elem_size }, Out -> Ok (Alloc_out_buffer { len; elem_size })
  | Buffer { len; elem_size }, In_out ->
      Ok (Copy_in_out_buffer { len; elem_size })
  | Element _, In -> Ok In_element
  | Element { allocates }, Out -> Ok (Out_element { allocates })
  | Element _, In_out -> Ok In_out_element
  | Callback, _ -> Ok Pass_callback
  | Struct_ptr { fields }, In -> Ok (In_struct (List.length fields))
  | Struct_ptr { fields }, (Out | In_out) ->
      Ok (Out_struct (List.length fields))
  | Unknown, _ ->
      Error
        (Printf.sprintf "parameter %S has unresolved kind; refine the spec"
           p.p_name)

let compile_sync spec fn =
  match fn.f_sync with
  | Sync -> Ok Always_sync
  | Async -> Ok Always_async
  | Sync_on { sync_param } -> Ok (Sync_on_completion { sp_key = sync_param })
  | Sync_if { cond_param; cond_const } -> (
      match int_of_string_opt cond_const with
      | Some v -> Ok (Sync_when_eq { sp_param = cond_param; sp_value = v })
      | None -> (
          match find_constant spec cond_const with
          | Some v -> Ok (Sync_when_eq { sp_param = cond_param; sp_value = v })
          | None ->
              Error
                (Printf.sprintf "unknown constant %S in sync condition"
                   cond_const)))

let compile_fn spec fn =
  let rec params acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match compile_param p with
        | Ok a -> params ((p.p_name, a) :: acc) rest
        | Error e -> Error (Printf.sprintf "%s: %s" fn.f_name e))
  in
  match params [] fn.f_params with
  | Error _ as e -> e
  | Ok cp_params -> (
      match compile_sync spec fn with
      | Error e -> Error (Printf.sprintf "%s: %s" fn.f_name e)
      | Ok cp_sync ->
          Ok
            {
              cp_name = fn.f_name;
              cp_sync;
              cp_stream = fn.f_stream;
              cp_params;
              cp_arity = List.length cp_params;
              cp_record = fn.f_record;
              cp_resources = fn.f_resources;
              cp_dealloc_params =
                List.filter_map
                  (fun p -> if p.p_deallocates then Some p.p_name else None)
                  fn.f_params;
              cp_target_param =
                List.find_map
                  (fun p -> if p.p_target then Some p.p_name else None)
                  fn.f_params;
            })

let compile spec =
  let plans = Hashtbl.create 64 in
  let rec go = function
    | [] ->
        Ok
          {
            plan_api = spec.api_name;
            plans;
            order = List.map (fun f -> f.f_name) spec.fns;
          }
    | fn :: rest -> (
        match compile_fn spec fn with
        | Ok p ->
            Hashtbl.replace plans fn.f_name p;
            go rest
        | Error _ as e -> e)
  in
  go spec.fns

let find t name = Hashtbl.find_opt t.plans name
let find_exn t name = Hashtbl.find t.plans name
let function_count t = List.length t.order
let function_names t = t.order
let api t = t.plan_api

(* --- runtime queries (driven by actual argument values) ---------------- *)

(* Every query evaluates the spec's size and resource expressions with
   {!Ava_spec.Ast.eval}; an expression that cannot be evaluated (an
   unbound parameter or a zero divisor) counts as 0.  Two lookups exist:
   a named env (tests, tools) and the positional scalar view the
   remoting hops fill without allocating. *)
let eval_len lookup a b e =
  match eval lookup a b e with
  | v -> Stdlib.max 0 v
  | exception (Unbound_param | Zero_divisor) -> 0

(* --- scalar view ----------------------------------------------------------- *)

(* The scalar arguments of one invocation by parameter position.  A
   position is bound iff its stamp equals the current generation, so
   [clear_scalars] forgets every binding in O(1) and a view is reused
   call after call without allocating. *)
type scalars = {
  mutable sv_val : int array;
  mutable sv_stamp : int array;
  mutable sv_gen : int;
}

let scalars () = { sv_val = [||]; sv_stamp = [||]; sv_gen = 1 }
let clear_scalars sv = sv.sv_gen <- sv.sv_gen + 1

let bind_scalar sv i n =
  let cap = Array.length sv.sv_val in
  if i >= cap then begin
    let cap' = Stdlib.max (i + 1) (Stdlib.max 8 (2 * cap)) in
    let grow a = Array.append a (Array.make (cap' - cap) 0) in
    sv.sv_val <- grow sv.sv_val;
    sv.sv_stamp <- grow sv.sv_stamp
  end;
  sv.sv_val.(i) <- n;
  sv.sv_stamp.(i) <- sv.sv_gen

let bound sv i = i < Array.length sv.sv_stamp && sv.sv_stamp.(i) = sv.sv_gen
let scalar_at sv i = if bound sv i then Some sv.sv_val.(i) else None

(* A name resolves to the last bound [Pass_scalar] position carrying it,
   as a named env built parameter by parameter would shadow it. *)
let rec scalar_pos sv p i found = function
  | [] -> found
  | (name, Pass_scalar) :: rest when bound sv i && String.equal name p ->
      scalar_pos sv p (i + 1) i rest
  | _ :: rest -> scalar_pos sv p (i + 1) found rest

let view_lookup plan sv p =
  let i = scalar_pos sv p 0 (-1) plan.cp_params in
  if i < 0 then raise_notrace Unbound_param else sv.sv_val.(i)

let buffer_bytes lookup a b = function
  | Copy_in_buffer { len; elem_size }
  | Alloc_out_buffer { len; elem_size }
  | Copy_in_out_buffer { len; elem_size } ->
      eval_len lookup a b len * elem_size
  | Pass_scalar | Pass_handle | In_element | Out_element _ | In_out_element
  | Pass_callback | In_struct _ | Out_struct _ ->
      0

(* Marshalled request payload: scalars/handles + in-buffers. *)
let request_bytes plan ~env =
  List.fold_left
    (fun acc (_, action) ->
      acc
      +
      match action with
      | Pass_scalar | Pass_handle | Pass_callback -> 8
      | In_element | In_out_element -> 8
      | In_struct n -> 8 + (8 * n)
      | Out_struct _ -> 8
      | Copy_in_buffer _ as a -> 8 + buffer_bytes env_lookup env () a
      | Copy_in_out_buffer _ as a -> 8 + buffer_bytes env_lookup env () a
      | Alloc_out_buffer _ -> 8 (* length descriptor only *)
      | Out_element _ -> 8)
    16 (* call header: function id, sequence number *)
    plan.cp_params

(* Marshalled reply payload: return value + out-buffers/elements. *)
let reply_bytes plan ~env =
  List.fold_left
    (fun acc (_, action) ->
      acc
      +
      match action with
      | Alloc_out_buffer _ as a -> 8 + buffer_bytes env_lookup env () a
      | Copy_in_out_buffer _ as a -> 8 + buffer_bytes env_lookup env () a
      | Out_element _ | In_out_element -> 8
      | Out_struct n -> 8 + (8 * n)
      | Pass_scalar | Pass_handle | Pass_callback | In_element
      | Copy_in_buffer _ | In_struct _ ->
          0)
    16 plan.cp_params

(* Does the call produce any output the caller could observe? *)
let has_outputs plan =
  List.exists
    (fun (_, action) ->
      match action with
      | Alloc_out_buffer _ | Copy_in_out_buffer _ | Out_element _
      | In_out_element | Out_struct _ ->
          true
      | Pass_scalar | Pass_handle | Pass_callback | In_element
      | Copy_in_buffer _ | In_struct _ ->
          false)
    plan.cp_params

(* Synchrony decision for one concrete invocation: an unknown
   condition parameter conservatively forces sync. *)
let sync_with lookup a b plan =
  match plan.cp_sync with
  | Always_sync -> true
  | Always_async -> false
  | Sync_on_completion _ -> true
  | Sync_when_eq { sp_param; sp_value } -> (
      match lookup a b sp_param with
      | v -> v = sp_value
      | exception Unbound_param -> true)

let is_sync plan ~env = sync_with env_lookup env () plan
let sync_of_scalars plan sv = sync_with view_lookup plan sv plan

let rec find_resource name = function
  | [] -> raise_notrace Not_found
  | (n, e) :: rest -> if String.equal n name then e else find_resource name rest

(* Resource estimate named [resource] for one invocation, if declared. *)
let resource_estimate plan ~env name =
  match find_resource name plan.cp_resources with
  | e -> Some (eval_len env_lookup env () e)
  | exception Not_found -> None

(* Cost units of one invocation, the currency of the router's WFQ,
   quotas and device-time accounting and of the server's TDR budget: the
   spec's device-time estimate, else its bus bytes at 64 B a unit, else
   one unit. *)
let call_cost plan sv =
  match find_resource "device_time" plan.cp_resources with
  | e -> float_of_int (Stdlib.max 1 (eval_len view_lookup plan sv e))
  | exception Not_found -> (
      match find_resource "bus_bytes" plan.cp_resources with
      | e -> float_of_int (Stdlib.max 1 (eval_len view_lookup plan sv e / 64))
      | exception Not_found -> 1.0)

(* Estimated device nanoseconds per cost unit, for the router's pacing
   and the server's TDR budget: deliberately an under-estimate, so
   pacing never outruns the device. *)
let ns_per_cost = 0.02
