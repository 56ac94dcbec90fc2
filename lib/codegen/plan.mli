(** CAvA backend, part 1: compile a refined specification into an
    executable {e marshalling plan}.

    The plan is the semantic content of the code CAvA would generate:
    for every API function it fixes argument directions and byte counts,
    the synchrony decision, the record/replay class and resource-usage
    estimates.  AvA's API-agnostic runtime is driven entirely by this
    table — nothing in it knows OpenCL from MVNC from QAT. *)

open Ava_spec.Ast

(** What the generated stub does with one parameter. *)
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
      (** parameters whose handle this call deallocates *)
  cp_target_param : string option;
      (** the parameter denoting the object this call modifies *)
}

type t

val compile : api_spec -> (t, string) result
(** Fails on unresolved parameter kinds or unknown constants in
    synchrony conditions (i.e. on unrefined specs). *)

val find : t -> string -> call_plan option

val find_exn : t -> string -> call_plan
(** {!find} without the option, for per-call paths.
    @raise Not_found if the function is not in the plan. *)

val function_count : t -> int

val function_names : t -> string list
(** The spec's function names, in declaration order. *)

val api : t -> string

(** {1 Runtime queries} — driven by actual argument values; [env] binds
    scalar parameter names. *)

(** {2 Scalar view}

    The scalar arguments of one invocation, by parameter position: a
    reusable buffer that the router's frame cursor, the stub and the
    server fill and query without allocating. *)

type scalars

val scalars : unit -> scalars
(** An empty view. *)

val clear_scalars : scalars -> unit
(** Forget every binding, in O(1). *)

val bind_scalar : scalars -> int -> int -> unit
(** [bind_scalar sv i n] binds argument position [i] to [n]. *)

val scalar_at : scalars -> int -> int option
(** The binding of position [i], if any. *)

(** {2 Queries} *)

val request_bytes : call_plan -> env:(string * int) list -> int
(** Marshalled request payload: scalars/handles plus in-buffers. *)

val reply_bytes : call_plan -> env:(string * int) list -> int
(** Marshalled reply payload: return value plus out-buffers/elements. *)

val has_outputs : call_plan -> bool
(** Does the call produce anything the caller could observe? *)

val is_sync : call_plan -> env:(string * int) list -> bool
(** Synchrony decision for one concrete invocation; unknown condition
    parameters conservatively force sync. *)

val sync_of_scalars : call_plan -> scalars -> bool
(** {!is_sync} with each [Pass_scalar] parameter read from its position
    in the view. *)

val reads_scalars : call_plan -> bool
(** Does {!sync_of_scalars} read the view?  Only for a conditional plan
    ([Sync_when_eq]); a caller loads the view only then. *)

val acknowledged : call_plan -> scalars -> bool
(** Is this invocation acknowledged in bulk instead of replied to?
    True when it is forwarded (not {!sync_of_scalars}) and its reply
    would carry nothing its guest reads: every output is an allocating
    out-element, a guest-assigned id ("handled by guest-assigned id" in
    [Validate.fidelity_report]).  The guest stub and the API server
    both decide by this function alone, so they never disagree on
    which calls get a reply.  The view must hold the call's scalars
    when {!reads_scalars}. *)

val resource_estimate :
  call_plan -> env:(string * int) list -> string -> int option
(** The named resource estimate for one invocation, if declared. *)

val call_cost : call_plan -> scalars -> float
(** Cost units of one invocation, reading each [Pass_scalar] parameter
    from its position in the view: the [device_time] estimate, else
    [bus_bytes / 64], else 1 (each floored at 1). *)

val ns_per_cost : float
(** Estimated device nanoseconds per {!call_cost} unit, the one factor
    behind the router's pacing and the server's TDR budget.  A
    deliberate under-estimate, so pacing never outruns the device. *)
