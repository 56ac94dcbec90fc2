(* Inference of a preliminary specification from an unmodified header.

   CAvA can only exploit what C declarations express: const-ness,
   pointer-ness, typedef opacity and naming conventions.  Everything it
   cannot prove is surfaced in [f_unresolved] — the "guidance" the
   developer answers when refining the spec (Figure 2 of the paper). *)

open Ast

let rec sizeof header ty =
  match ty with
  | Void -> 1
  | Bool | Char -> 1
  | Int { bits; _ } -> bits / 8
  | Float bits -> bits / 8
  | Ptr _ -> 8
  | Named n -> (
      match List.assoc_opt n header.Cheader.h_typedefs with
      | Some u -> sizeof header u
      | None -> 8 (* opaque handle *))

let lowercase = String.lowercase_ascii

(* Case-insensitive substring test used by the heuristics. *)
let name_contains hay needle =
  let hay = lowercase hay and needle = lowercase needle in
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn > 0 && at 0

(* Find the parameter that, by naming convention, carries a buffer's
   length: p_size, num_p, num_ps, p_count, n_p — or a lone "size". *)
let guess_length_param params name =
  let names = List.map fst params in
  let candidates =
    [
      name ^ "_size";
      "num_" ^ name;
      "num_" ^ name ^ "s";
      name ^ "_count";
      "n_" ^ name;
      name ^ "_len";
    ]
  in
  let direct =
    List.find_opt (fun c -> List.mem c names) candidates
  in
  match direct with
  | Some c -> Some c
  | None ->
      (* A parameter literally called size/count in a function with this
         single data pointer. *)
      List.find_opt
        (fun n -> n = "size" || n = "count" || n = "length")
        names

(* Record-class heuristics from the function name. *)
let guess_record_class name =
  if name_contains name "init" then Global_config
  else if
    name_contains name "create" || name_contains name "alloc"
    || name_contains name "open" || name_contains name "make"
    || name_contains name "new"
  then Object_alloc
  else if
    name_contains name "release" || name_contains name "free"
    || name_contains name "close" || name_contains name "dealloc"
  then Object_dealloc
  else if
    name_contains name "set" || name_contains name "build"
    || name_contains name "compile" || name_contains name "write"
    || name_contains name "fill" || name_contains name "retain"
  then Object_modify
  else No_record

let preliminary header (decl : Cheader.fn_decl) =
  let inferred = ref [] and unresolved = ref [] in
  let note fmt = Printf.ksprintf (fun s -> inferred := s :: !inferred) fmt in
  let ask fmt = Printf.ksprintf (fun s -> unresolved := s :: !unresolved) fmt in
  let classify (pname, ty) =
    match ty with
    | Named n when List.mem n header.Cheader.h_handles ->
        note "%s: opaque handle (typedef to incomplete struct)" pname;
        {
          p_name = pname;
          p_type = ty;
          p_direction = In;
          p_kind = Handle;
          p_deallocates = false;
          p_target = false;
        }
    | Ptr { const; pointee } when Cheader.is_struct header pointee ->
        let fields =
          match pointee with
          | Named n -> Option.value ~default:[] (Cheader.find_struct header n)
          | _ -> []
        in
        note "%s: by-value struct pointer (%d fields, marshalled field-wise)"
          pname (List.length fields);
        {
          p_name = pname;
          p_type = ty;
          p_direction = (if const then In else Out);
          p_kind = Struct_ptr { fields };
          p_deallocates = false;
          p_target = false;
        }
    | Ptr { const; pointee } ->
        let handle_pointee = Cheader.is_handle header pointee in
        if handle_pointee && not const then begin
          note "%s: single-element output handle (T* to opaque handle)" pname;
          {
            p_name = pname;
            p_type = ty;
            p_direction = Out;
            p_kind = Element { allocates = true };
            p_deallocates = false;
            p_target = false;
          }
        end
        else begin
          let direction =
            if const then begin
              note "%s: input buffer (const pointer)" pname;
              In
            end
            else begin
              ask "%s: non-const pointer — out or in_out? (assumed out)" pname;
              Out
            end
          in
          let elem_size = sizeof header pointee in
          let kind =
            match guess_length_param decl.Cheader.d_params pname with
            | Some lp ->
                note "%s: buffer length from naming convention (%s)" pname lp;
                Buffer { len = Param lp; elem_size }
            | None ->
                ask "%s: buffer length not derivable from the declaration"
                  pname;
                Unknown
          in
          {
            p_name = pname;
            p_type = ty;
            p_direction = direction;
            p_kind = kind;
            p_deallocates = false;
            p_target = false;
          }
        end
    | _ ->
        {
          p_name = pname;
          p_type = ty;
          p_direction = In;
          p_kind = Scalar;
          p_deallocates = false;
          p_target = false;
        }
  in
  let params = List.map classify decl.Cheader.d_params in
  let record = guess_record_class decl.Cheader.d_name in
  note "record class %s (name heuristic)" (record_class_to_string record);
  (* Ordering-key heuristic: a handle parameter whose typedef names a
     stream carries the call's enqueue order (CUDA's cudaStream_t
     convention). *)
  let stream =
    List.find_map
      (fun p ->
        match (p.p_kind, p.p_type) with
        | Handle, Named n when name_contains n "stream" -> Some p.p_name
        | _ -> None)
      params
  in
  Option.iter
    (fun s -> note "%s: ordering key (stream-typed handle)" s)
    stream;
  {
    f_name = decl.Cheader.d_name;
    f_ret = decl.Cheader.d_ret;
    f_params = params;
    f_sync = Sync;
    f_stream = stream;
    f_record = record;
    f_resources = [];
    f_inferred = List.rev !inferred;
    f_unresolved = List.rev !unresolved;
  }

(* Explicit annotations from the spec file, overriding inference. *)
type param_ann = {
  a_direction : direction option;
  a_kind : param_kind option;
  a_deallocates : bool;
  a_target : bool;
}

let empty_param_ann =
  { a_direction = None; a_kind = None; a_deallocates = false; a_target = false }

type fn_ann = {
  an_sync : sync_class option;
  an_stream : string option;
  an_params : (string * param_ann) list;
  an_resources : (string * expr) list;
  an_record : record_class option;
}

let empty_fn_ann =
  {
    an_sync = None;
    an_stream = None;
    an_params = [];
    an_resources = [];
    an_record = None;
  }

(* Apply developer annotations to a preliminary spec.  Any explicitly
   annotated parameter is considered resolved. *)
let apply_annotations spec ann =
  let resolved_params = List.map fst ann.an_params in
  let apply_param p =
    (* A parameter may carry several annotation blocks; apply them all. *)
    List.fold_left
      (fun p (name, a) ->
        if not (String.equal name p.p_name) then p
        else
          {
            p with
            p_direction = Option.value ~default:p.p_direction a.a_direction;
            p_kind = Option.value ~default:p.p_kind a.a_kind;
            p_deallocates = p.p_deallocates || a.a_deallocates;
            p_target = p.p_target || a.a_target;
          })
      p ann.an_params
  in
  let params = List.map apply_param spec.f_params in
  (* A guidance note like "ptr: ..." is cleared once "ptr" is annotated. *)
  let still_unresolved =
    List.filter
      (fun q ->
        match String.index_opt q ':' with
        | None -> true
        | Some i -> not (List.mem (String.sub q 0 i) resolved_params))
      spec.f_unresolved
  in
  {
    spec with
    f_params = params;
    f_sync = Option.value ~default:spec.f_sync ann.an_sync;
    f_stream =
      (match ann.an_stream with Some _ as s -> s | None -> spec.f_stream);
    f_record = Option.value ~default:spec.f_record ann.an_record;
    f_resources = spec.f_resources @ ann.an_resources;
    f_unresolved = still_unresolved;
  }
