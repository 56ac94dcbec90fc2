(* Specification validation: what must hold before CAvA will generate a
   stack.

   Failed checks are the difference between a *preliminary* spec (fresh
   from inference, possibly incomplete) and a *refined* one the developer
   has signed off. *)

open Ast

type issue = { fn : string; what : string }

let pp_issue ppf i = Fmt.pf ppf "%s: %s" i.fn i.what

let integer_param fn pname =
  List.find_opt (fun p -> String.equal p.p_name pname) fn.f_params

let check_expr fn what e issues =
  List.fold_left
    (fun issues pname ->
      match integer_param fn pname with
      | None ->
          { fn = fn.f_name;
            what = Printf.sprintf "%s references unknown parameter %S" what pname }
          :: issues
      | Some p -> (
          match p.p_kind with
          | Scalar | Handle | Callback -> issues
          (* A C idiom: size passed via an in/in-out pointer
             (e.g. [unsigned int *result_size]). *)
          | Element _ when p.p_direction <> Out -> issues
          | Buffer _ | Element _ | Struct_ptr _ | Unknown ->
              {
                fn = fn.f_name;
                what =
                  Printf.sprintf "%s references non-scalar parameter %S" what
                    pname;
              }
              :: issues))
    issues (expr_params e)

let check_fn spec fn =
  let issues = [] in
  (* 1. No unknown parameter kinds. *)
  let issues =
    List.fold_left
      (fun issues p ->
        match p.p_kind with
        | Unknown ->
            {
              fn = fn.f_name;
              what =
                Printf.sprintf "parameter %S has unresolved kind" p.p_name;
            }
            :: issues
        | _ -> issues)
      issues fn.f_params
  in
  (* 2. Buffer length expressions are well-formed. *)
  let issues =
    List.fold_left
      (fun issues p ->
        match p.p_kind with
        | Buffer { len; _ } ->
            check_expr fn
              (Printf.sprintf "buffer length of %S" p.p_name)
              len issues
        | _ -> issues)
      issues fn.f_params
  in
  (* 3. Resource estimates are well-formed. *)
  let issues =
    List.fold_left
      (fun issues (rname, e) ->
        check_expr fn (Printf.sprintf "resource estimate %S" rname) e issues)
      issues fn.f_resources
  in
  (* 4. Conditional synchrony refers to a real scalar parameter and a
        known constant. *)
  let issues =
    match fn.f_sync with
    | Sync | Async -> issues
    | Sync_on { sync_param } -> (
        (* The completion object must be a handle the server can key the
           reply on. *)
        match integer_param fn sync_param with
        | Some { p_kind = Handle; _ } -> issues
        | Some _ ->
            {
              fn = fn.f_name;
              what =
                Printf.sprintf "sync_on refers to non-handle %S" sync_param;
            }
            :: issues
        | None ->
            {
              fn = fn.f_name;
              what =
                Printf.sprintf "sync_on refers to unknown parameter %S"
                  sync_param;
            }
            :: issues)
    | Sync_if { cond_param; cond_const } ->
        let issues =
          match integer_param fn cond_param with
          | Some { p_kind = Scalar; _ } -> issues
          | Some _ ->
              {
                fn = fn.f_name;
                what =
                  Printf.sprintf "sync condition on non-scalar %S" cond_param;
              }
              :: issues
          | None ->
              {
                fn = fn.f_name;
                what =
                  Printf.sprintf "sync condition on unknown parameter %S"
                    cond_param;
              }
              :: issues
        in
        if
          int_of_string_opt cond_const <> None
          || find_constant spec cond_const <> None
        then issues
        else
          {
            fn = fn.f_name;
            what = Printf.sprintf "sync condition uses unknown constant %S" cond_const;
          }
          :: issues
  in
  (* 5. The ava_stream ordering key must name a handle parameter: the
        server orders enqueued work per stream object. *)
  let issues =
    match fn.f_stream with
    | None -> issues
    | Some s -> (
        match integer_param fn s with
        | Some { p_kind = Handle; _ } -> issues
        | Some _ ->
            {
              fn = fn.f_name;
              what = Printf.sprintf "ava_stream refers to non-handle %S" s;
            }
            :: issues
        | None ->
            {
              fn = fn.f_name;
              what =
                Printf.sprintf "ava_stream refers to unknown parameter %S" s;
            }
            :: issues)
  in
  (* 6. Async functions must not have output parameters (the fidelity
        caveat of §4.2): flag them as issues unless explicitly annotated
        async (then it's an accepted fidelity loss, reported only). *)
  issues

let check spec =
  List.concat_map (fun fn -> List.rev (check_fn spec fn)) spec.fns

(* §3's "assertions and theorems which can be automatically checked":
   properties of the generated stack that hold by construction or are
   accepted, documented fidelity losses.  Unlike {!check} failures these
   do not block generation — they are the report a verifier would emit. *)
type fidelity_note = { fn_note : string; note : string }

let pp_fidelity ppf n = Fmt.pf ppf "%s: %s" n.fn_note n.note

let fidelity_report spec =
  List.concat_map
    (fun fn ->
      let notes = ref [] in
      let note fmt =
        Printf.ksprintf
          (fun s -> notes := { fn_note = fn.f_name; note = s } :: !notes)
          fmt
      in
      (* 1. Asynchronously forwarded calls cannot report errors at their
         call site (§4.2's caveat). *)
      (match fn.f_sync with
      | Async ->
          note
            "forwarded asynchronously: failures surface at a later synchronous call";
          (* 2. Async calls with observable outputs need special cases
             (deferred delivery or guest-assigned ids). *)
          List.iter
            (fun p ->
              match (p.p_kind, p.p_direction) with
              | Element { allocates = true }, Out ->
                  note
                    "async output %S handled by guest-assigned id" p.p_name
              | (Buffer _ | Element _), (Out | In_out) ->
                  note
                    "async output %S delivered by a deferred reply" p.p_name
              | _ -> ())
            fn.f_params
      | Sync | Sync_if _ -> ()
      | Sync_on { sync_param } ->
          note
            "completion point: reply withheld until work ordered before %S drains"
            sync_param);
      (* 3. Deallocating calls must target a handle parameter. *)
      List.iter
        (fun p ->
          if p.p_deallocates && p.p_kind <> Handle then
            note "deallocates non-handle parameter %S" p.p_name)
        fn.f_params;
      (* 4. Record classes need a trackable object. *)
      (match fn.f_record with
      | Object_modify
        when (not (List.exists (fun p -> p.p_target) fn.f_params))
             && not (List.exists (fun p -> p.p_kind = Handle) fn.f_params) ->
          note "object_modify without a handle or target parameter"
      | _ -> ());
      List.rev !notes)
    spec.fns

(* Developer guidance: everything inference could not answer, per
   function — the interactive part of the Figure 2 workflow. *)
let guidance spec =
  List.filter_map
    (fun fn ->
      if fn.f_unresolved = [] then None else Some (fn.f_name, fn.f_unresolved))
    spec.fns
