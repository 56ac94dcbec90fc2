(* Parser for the C-header subset CAvA consumes.

   Supported declarations:
   - [#define NAME 42]                          (integer constants)
   - [typedef <base> name;]                     (scalar typedefs)
   - [typedef struct _tag *name;]               (opaque handle typedefs)
   - [ret name(type arg, const type *arg, ...);] (function declarations)

   This is the "unmodified API header" of the AvA workflow: no AvA
   annotations appear here. *)

open Ast

type fn_decl = {
  d_name : string;
  d_ret : ctype;
  d_params : (string * ctype) list;
}

type t = {
  h_typedefs : (string * ctype) list;  (** typedef name -> underlying type *)
  h_handles : string list;  (** typedef names that are opaque handles *)
  h_structs : (string * (string * ctype) list) list;
      (** typedef'd struct name -> fields *)
  h_constants : (string * int) list;
  h_decls : fn_decl list;
}

let base_types =
  [
    ("void", Void);
    ("bool", Bool);
    ("char", Char);
    ("int", Int { signed = true; bits = 32 });
    ("long", Int { signed = true; bits = 64 });
    ("float", Float 32);
    ("double", Float 64);
    ("size_t", Int { signed = false; bits = 64 });
    ("uint8_t", Int { signed = false; bits = 8 });
    ("uint32_t", Int { signed = false; bits = 32 });
    ("uint64_t", Int { signed = false; bits = 64 });
    ("int32_t", Int { signed = true; bits = 32 });
    ("int64_t", Int { signed = true; bits = 64 });
  ]

let is_integer_type t ty =
  let rec probe = function
    | Int _ | Bool | Char -> true
    | Named n -> (
        match List.assoc_opt n t.h_typedefs with
        | Some u -> probe u
        | None -> false)
    | Void | Float _ | Ptr _ -> false
  in
  probe ty

let is_handle t = function
  | Named n -> List.mem n t.h_handles
  | _ -> false

let find_struct t name = List.assoc_opt name t.h_structs

let is_struct t = function
  | Named n -> List.mem_assoc n t.h_structs
  | _ -> false

(* Parse one type occurrence: [const]? base [*]*.  Known typedef names
   become [Named]; unknown identifiers are an error. *)
let parse_type header c =
  let const = Cursor.accept_kw c "const" in
  let base =
    match Cursor.peek c with
    | Lexer.IDENT "unsigned" ->
        Cursor.advance c;
        (match Cursor.peek c with
        | Lexer.IDENT "int" ->
            Cursor.advance c;
            Int { signed = false; bits = 32 }
        | Lexer.IDENT "long" ->
            Cursor.advance c;
            Int { signed = false; bits = 64 }
        | Lexer.IDENT "char" ->
            Cursor.advance c;
            Int { signed = false; bits = 8 }
        | _ -> Int { signed = false; bits = 32 })
    | Lexer.IDENT name ->
        Cursor.advance c;
        (match List.assoc_opt name base_types with
        | Some ty -> ty
        | None ->
            if
              List.mem_assoc name header.h_typedefs
              || List.mem name header.h_handles
              || List.mem_assoc name header.h_structs
            then Named name
            else Cursor.fail c (Printf.sprintf "unknown type %S" name))
    | got ->
        Cursor.fail c
          (Printf.sprintf "expected a type but found %s"
             (Lexer.token_to_string got))
  in
  let rec stars ty is_const =
    if Cursor.accept c Lexer.STAR then
      stars (Ptr { const = is_const; pointee = ty }) false
    else ty
  in
  stars base const

(* typedef <base> name;
   | typedef struct _tag *name;            (opaque handle)
   | typedef struct { fields } name;       (by-value struct) *)
let parse_typedef header c =
  Cursor.expect_kw c "typedef";
  if Cursor.accept_kw c "struct" then begin
    if Cursor.peek c = Lexer.LBRACE then begin
      (* Definition with fields. *)
      Cursor.advance c;
      let rec fields acc =
        if Cursor.accept c Lexer.RBRACE then List.rev acc
        else begin
          let ty = parse_type header c in
          let fname = Cursor.expect_ident c in
          Cursor.expect c Lexer.SEMI;
          fields ((fname, ty) :: acc)
        end
      in
      let fs = fields [] in
      let name = Cursor.expect_ident c in
      Cursor.expect c Lexer.SEMI;
      { header with h_structs = header.h_structs @ [ (name, fs) ] }
    end
    else begin
      let _tag = Cursor.expect_ident c in
      Cursor.expect c Lexer.STAR;
      let name = Cursor.expect_ident c in
      Cursor.expect c Lexer.SEMI;
      { header with h_handles = header.h_handles @ [ name ] }
    end
  end
  else begin
    let ty = parse_type header c in
    let name = Cursor.expect_ident c in
    Cursor.expect c Lexer.SEMI;
    { header with h_typedefs = header.h_typedefs @ [ (name, ty) ] }
  end

let parse_params header c =
  Cursor.expect c Lexer.LPAREN;
  if Cursor.accept c Lexer.RPAREN then []
  else if
    (* [(void)] only — a leading [void *p] parameter is a real type. *)
    Cursor.peek c = Lexer.IDENT "void" && Cursor.peek2 c = Lexer.RPAREN
  then begin
    Cursor.advance c;
    Cursor.advance c;
    []
  end
  else begin
    let rec go acc =
      let ty = parse_type header c in
      let name = Cursor.expect_ident c in
      let acc = (name, ty) :: acc in
      if Cursor.accept c Lexer.COMMA then go acc
      else begin
        Cursor.expect c Lexer.RPAREN;
        List.rev acc
      end
    in
    go []
  end

let parse_decl header c =
  let ret = parse_type header c in
  let name = Cursor.expect_ident c in
  let params = parse_params header c in
  Cursor.expect c Lexer.SEMI;
  { d_name = name; d_ret = ret; d_params = params }

let empty =
  {
    h_typedefs = [];
    h_handles = [];
    h_structs = [];
    h_constants = [];
    h_decls = [];
  }

(* Parse a header on top of previously accumulated declarations (so a
   spec can include several headers). *)
let parse_into initial source =
  match Lexer.tokenize source with
  | Error e -> Error e
  | Ok toks -> (
      let c = Cursor.of_tokens toks in
      let rec loop header =
        match Cursor.peek c with
        | Lexer.EOF -> header
        | Lexer.DEFINE (name, v) ->
            Cursor.advance c;
            loop { header with h_constants = header.h_constants @ [ (name, v) ] }
        | Lexer.INCLUDE _ ->
            (* Nested includes are ignored: callers resolve includes. *)
            Cursor.advance c;
            loop header
        | Lexer.IDENT "typedef" -> loop (parse_typedef header c)
        | _ ->
            let d = parse_decl header c in
            loop { header with h_decls = header.h_decls @ [ d ] }
      in
      match loop initial with
      | header -> Ok header
      | exception Cursor.Parse_error (msg, line) ->
          Error (Printf.sprintf "line %d: %s" line msg))

let parse source = parse_into empty source

let find_decl t name =
  List.find_opt (fun d -> String.equal d.d_name name) t.h_decls
