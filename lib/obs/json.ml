(* Minimal JSON tree, printer and recursive-descent parser.

   The switch has no JSON library, so we keep a small self-contained
   implementation here; the parser lets the tests read exports back
   in.  Printing is deterministic (object members in insertion order,
   floats via %.17g trimmed) which the golden tests rely on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* {1 Accessors} *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

(* {1 Printing} *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      (* NaN / infinities are not valid JSON; emit null. *)
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_string b "null"
      else Buffer.add_string b (float_repr f)
  | String s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b

(* Pretty printer: 2-space indent, used for human-facing BENCH files. *)
let rec write_pretty b indent = function
  | List ((_ :: _) as items) ->
      let pad = String.make indent ' ' in
      let pad' = String.make (indent + 2) ' ' in
      Buffer.add_string b "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad';
          write_pretty b (indent + 2) v)
        items;
      Buffer.add_char b '\n';
      Buffer.add_string b pad;
      Buffer.add_char b ']'
  | Obj ((_ :: _) as fields) ->
      let pad = String.make indent ' ' in
      let pad' = String.make (indent + 2) ' ' in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\": ";
          write_pretty b (indent + 2) v)
        fields;
      Buffer.add_char b '\n';
      Buffer.add_string b pad;
      Buffer.add_char b '}'
  | v -> write b v

let to_string_pretty v =
  let b = Buffer.create 4096 in
  write_pretty b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* {1 Parsing} *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> error cur (Printf.sprintf "expected '%c'" c)

let parse_literal cur word v =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    v
  end
  else error cur (Printf.sprintf "expected '%s'" word)

let parse_string_raw cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some 'n' -> advance cur; Buffer.add_char b '\n'; loop ()
        | Some 't' -> advance cur; Buffer.add_char b '\t'; loop ()
        | Some 'r' -> advance cur; Buffer.add_char b '\r'; loop ()
        | Some 'b' -> advance cur; Buffer.add_char b '\b'; loop ()
        | Some 'f' -> advance cur; Buffer.add_char b '\012'; loop ()
        | Some '/' -> advance cur; Buffer.add_char b '/'; loop ()
        | Some '"' -> advance cur; Buffer.add_char b '"'; loop ()
        | Some '\\' -> advance cur; Buffer.add_char b '\\'; loop ()
        | Some 'u' ->
            advance cur;
            if cur.pos + 4 > String.length cur.src then
              error cur "truncated \\u escape";
            let hex = String.sub cur.src cur.pos 4 in
            cur.pos <- cur.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error cur "bad \\u escape"
            in
            (* Encode the code point as UTF-8 (BMP only — enough for
               the ASCII control escapes we emit ourselves). *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
        | _ -> error cur "bad escape")
    | Some c ->
        advance cur;
        Buffer.add_char b c;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number cur =
  let start = cur.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek cur with Some c when is_num_char c -> true | _ -> false
  do
    advance cur
  done;
  let s = String.sub cur.src start (cur.pos - start) in
  if s = "" then error cur "expected number";
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some 'n' -> parse_literal cur "null" Null
  | Some 't' -> parse_literal cur "true" (Bool true)
  | Some 'f' -> parse_literal cur "false" (Bool false)
  | Some '"' -> String (parse_string_raw cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              items (v :: acc)
          | Some ']' ->
              advance cur;
              List.rev (v :: acc)
          | _ -> error cur "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws cur;
          let k = parse_string_raw cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              members ((k, v) :: acc)
          | Some '}' ->
              advance cur;
              List.rev ((k, v) :: acc)
          | _ -> error cur "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some _ -> parse_number cur

let parse s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then error cur "trailing garbage";
  v

let parse_opt s = try Some (parse s) with Parse_error _ -> None
