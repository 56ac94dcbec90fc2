(* Pretty-printer: renders an {!Ast.api_spec} back into CAvA specification
   syntax.  [Parser.parse] of the output yields an equivalent spec, which
   the property tests exercise. *)

open Ast

let pp_params ppf params =
  Fmt.pf ppf "%a"
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf p ->
         Fmt.pf ppf "%s%s"
           (let s = ctype_to_string p.p_type in
            if String.length s > 0 && s.[String.length s - 1] = '*' then s
            else s ^ " ")
           p.p_name))
    params

let pp_kind ppf p =
  match p.p_kind with
  | Scalar -> Fmt.pf ppf "scalar;"
  | Handle -> Fmt.pf ppf "handle;"
  | Callback -> Fmt.pf ppf "callback;"
  | Struct_ptr _ -> Fmt.pf ppf "/* struct (from header) */"
  | Unknown -> Fmt.pf ppf "/* unresolved */"
  | Buffer { len; elem_size } ->
      if elem_size = 1 then Fmt.pf ppf "buffer(%s);" (expr_to_string len)
      else Fmt.pf ppf "buffer(%s, %d);" (expr_to_string len) elem_size
  | Element { allocates } ->
      if allocates then Fmt.pf ppf "element { allocates; }"
      else Fmt.pf ppf "element { }"

let pp_param_ann ppf p =
  Fmt.pf ppf "  parameter(%s) { %s; %a%s%s }@." p.p_name
    (direction_to_string p.p_direction)
    pp_kind p
    (if p.p_deallocates then " deallocates;" else "")
    (if p.p_target then " target;" else "")

let needs_annotation p =
  if p.p_target || p.p_deallocates then true
  else
    match (p.p_kind, p.p_direction) with
    | Scalar, In -> false
    | Handle, In -> false
    (* Struct kind and direction are fully re-inferred from the header. *)
    | Struct_ptr _, _ -> false
    | _ -> true

let pp_fn ppf fn =
  Fmt.pf ppf "%s %s(%a) {@."
    (ctype_to_string fn.f_ret)
    fn.f_name pp_params fn.f_params;
  (match fn.f_sync with
  | Sync -> Fmt.pf ppf "  sync;@."
  | Async -> Fmt.pf ppf "  async;@."
  | Sync_if { cond_param; cond_const } ->
      Fmt.pf ppf "  if (%s == %s) sync; else async;@." cond_param cond_const
  | Sync_on { sync_param } -> Fmt.pf ppf "  sync_on(%s);@." sync_param);
  (match fn.f_stream with
  | Some s -> Fmt.pf ppf "  ava_stream(%s);@." s
  | None -> ());
  List.iter
    (fun p -> if needs_annotation p then pp_param_ann ppf p)
    fn.f_params;
  List.iter
    (fun (r, e) -> Fmt.pf ppf "  resource(%s, %s);@." r (expr_to_string e))
    fn.f_resources;
  Fmt.pf ppf "  record(%s);@." (record_class_to_string fn.f_record);
  Fmt.pf ppf "}@."

let pp_type ppf t =
  Fmt.pf ppf "type(%s) {" t.t_name;
  (match t.t_success with
  | Some s -> Fmt.pf ppf " success(%s);" s
  | None -> ());
  if t.t_is_handle then Fmt.pf ppf " handle;";
  Fmt.pf ppf " }@."

let pp_spec ppf spec =
  Fmt.pf ppf "api(%S);@.@." spec.api_name;
  List.iter (fun i -> Fmt.pf ppf "#include %S@." i) spec.includes;
  if spec.includes <> [] then Fmt.pf ppf "@.";
  List.iter (pp_type ppf) spec.types;
  if spec.types <> [] then Fmt.pf ppf "@.";
  List.iter
    (fun fn ->
      pp_fn ppf fn;
      Fmt.pf ppf "@.")
    spec.fns

(* The guidance report shown to the developer after inference. *)
let pp_guidance ppf spec =
  let open Validate in
  match guidance spec with
  | [] -> Fmt.pf ppf "specification complete: no open questions@."
  | qs ->
      Fmt.pf ppf "CAvA needs guidance on %d function(s):@." (List.length qs);
      List.iter
        (fun (fn, questions) ->
          Fmt.pf ppf "  %s:@." fn;
          List.iter (fun q -> Fmt.pf ppf "    - %s@." q) questions)
        qs
