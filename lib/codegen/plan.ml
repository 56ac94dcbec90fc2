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
let function_count t = List.length t.order
let api t = t.plan_api

(* --- runtime queries (driven by actual argument values) ---------------- *)

(* [env] binds scalar parameter names to their runtime values.  The env
   of one invocation binds each [Pass_scalar] parameter to its argument,
   read through [to_int].  Total: an argument list shorter or longer than
   the parameter list binds the common prefix. *)
let scalar_env plan ~to_int args =
  let rec go env params args =
    match (params, args) with
    | (name, Pass_scalar) :: params, v :: args -> (
        match to_int v with
        | Some n -> go ((name, n) :: env) params args
        | None -> go env params args)
    | _ :: params, _ :: args -> go env params args
    | [], _ | _, [] -> env
  in
  go [] plan.cp_params args

let eval_len env e =
  match eval_expr env e with Ok v -> Stdlib.max 0 v | Error _ -> 0

let buffer_bytes env = function
  | Copy_in_buffer { len; elem_size }
  | Alloc_out_buffer { len; elem_size }
  | Copy_in_out_buffer { len; elem_size } ->
      eval_len env len * elem_size
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
      | Copy_in_buffer _ as a -> 8 + buffer_bytes env a
      | Copy_in_out_buffer _ as a -> 8 + buffer_bytes env a
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
      | Alloc_out_buffer _ as a -> 8 + buffer_bytes env a
      | Copy_in_out_buffer _ as a -> 8 + buffer_bytes env a
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

(* Synchrony decision for one concrete invocation. *)
let is_sync plan ~env =
  match plan.cp_sync with
  | Always_sync -> true
  | Always_async -> false
  | Sync_on_completion _ -> true
  | Sync_when_eq { sp_param; sp_value } -> (
      match List.assoc_opt sp_param env with
      | Some v -> v = sp_value
      | None -> true (* conservative: unknown condition forces sync *))

(* Resource estimate named [resource] for one invocation, if declared. *)
let resource_estimate plan ~env name =
  match List.assoc_opt name plan.cp_resources with
  | None -> None
  | Some e -> Some (eval_len env e)

(* Cost units of one invocation, the currency of the router's WFQ,
   quotas and device-time accounting and of the server's TDR budget: the
   spec's device-time estimate, else its bus bytes at 64 B a unit, else
   one unit. *)
let call_cost plan ~env =
  match resource_estimate plan ~env "device_time" with
  | Some c -> float_of_int (Stdlib.max 1 c)
  | None -> (
      match resource_estimate plan ~env "bus_bytes" with
      | Some b -> float_of_int (Stdlib.max 1 (b / 64))
      | None -> 1.0)
