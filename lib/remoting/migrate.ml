(* Record/replay support for VM migration (§4.3).

   Calls are recorded according to their spec'd record class, Nooks-style
   object tracking included: deallocating an object prunes its allocation
   and modification history, so the replay log stays proportional to live
   state, not to execution length.

   Migration itself is orchestrated by {!Ava_core}: suspend the VM's
   worker, snapshot device buffers, replay the log on the destination,
   restore buffers, resume. *)

module Plan = Ava_codegen.Plan

open Ava_spec.Ast

type recorded = {
  rc_fn : string;
  rc_args : Wire.value list;
  rc_class : record_class;
  rc_primary : int option;
      (** the tracked guest handle this call allocates or modifies *)
}

type t = {
  mutable log : recorded list;  (** newest first *)
  mutable recorded_count : int;
  mutable pruned_count : int;
}

let create () = { log = []; recorded_count = 0; pruned_count = 0 }

(* The tracked object of a call: for allocations, the guest id the stub
   pre-assigned (by convention the first [Handle] among the arguments of
   an [Out_element { allocates }] parameter); for modifications and
   deallocations, the first handle argument.  An explicit target
   annotation wins.  Parameters and arguments are walked in step, over
   their common prefix. *)
let rec find_arg pick params args =
  match (params, args) with
  | p :: params, v :: args -> (
      match pick p v with Some _ as h -> h | None -> find_arg pick params args)
  | [], _ | _, [] -> None

let explicit_target tname (name, _) = function
  | Wire.Handle h when String.equal name tname -> Some (Int64.to_int h)
  | _ -> None

let alloc_target (_, action) v =
  match (action, v) with
  | Plan.Out_element { allocates = true }, Wire.Handle h -> Some (Int64.to_int h)
  | _ -> None

let handle_arg (_, action) v =
  match (action, v) with
  | Plan.Pass_handle, Wire.Handle h -> Some (Int64.to_int h)
  | _ -> None

(* The tracked object of a call: the spec'd [target] parameter if
   present, else a guest-assigned allocating out-element, else the first
   handle argument. *)
let primary_handle (plan : Plan.call_plan) (args : Wire.value list) =
  let params = plan.Plan.cp_params in
  match
    match plan.Plan.cp_target_param with
    | None -> None
    | Some tname -> find_arg (explicit_target tname) params args
  with
  | Some _ as h -> h
  | None -> (
      match find_arg alloc_target params args with
      | Some _ as h -> h
      | None -> find_arg handle_arg params args)

let tracks h r =
  match (r.rc_class, r.rc_primary) with
  | (Object_alloc | Object_modify), Some h' -> h' = h
  | _ -> false

(* [log] without object [h]'s records, counting them; the part of the
   log older than its oldest record is shared, not copied. *)
let rec prune t h = function
  | [] -> []
  | r :: rest as log ->
      let rest' = prune t h rest in
      if tracks h r then begin
        t.pruned_count <- t.pruned_count + 1;
        rest'
      end
      else if rest' == rest then log
      else r :: rest'

(* Observe one successfully executed call.  [allocated] is the virtual
   id the server assigned when the call created an object (the return
   handle), which argument inspection cannot recover. *)
let observe ?allocated t (plan : Plan.call_plan) (c : Message.call) =
  let record cls =
    let primary =
      match allocated with
      | Some _ -> allocated
      | None -> primary_handle plan c.Message.call_args
    in
    t.log <-
      {
        rc_fn = c.Message.call_fn;
        rc_args = c.Message.call_args;
        rc_class = cls;
        rc_primary = primary;
      }
      :: t.log;
    t.recorded_count <- t.recorded_count + 1
  in
  match plan.Plan.cp_record with
  | No_record -> ()
  | Global_config -> record Global_config
  | Object_alloc -> record Object_alloc
  | Object_modify -> record Object_modify
  | Object_dealloc -> (
      (* Prune the object's history instead of recording the dealloc. *)
      match primary_handle plan c.Message.call_args with
      | None -> ()
      | Some h -> t.log <- prune t h t.log)

(* The replay log in execution order. *)
let replay_log t = List.rev t.log

let log_length t = List.length t.log
let recorded_count t = t.recorded_count
let pruned_count t = t.pruned_count

(* Live tracked objects (guest ids with an allocation still in the log). *)
let live_objects t =
  List.filter_map
    (fun r ->
      match (r.rc_class, r.rc_primary) with
      | Object_alloc, Some h -> Some h
      | _ -> None)
    (replay_log t)
