(* Tests for the CAvA specification language: lexer, header parser,
   inference, spec parser, validation and pretty-print roundtrip. *)

open Ava_spec

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn > 0 && at 0

let _ = contains

let toks_of s =
  match Lexer.tokenize s with
  | Ok toks -> List.map (fun l -> l.Lexer.tok) toks
  | Error e -> Alcotest.failf "lex error: %s" e

let lexer_tests =
  [
    Alcotest.test_case "punctuation and identifiers" `Quick (fun () ->
        Alcotest.(check bool)
          "tokens" true
          (toks_of "foo(bar, 42 * baz);"
          = [
              Lexer.IDENT "foo";
              Lexer.LPAREN;
              Lexer.IDENT "bar";
              Lexer.COMMA;
              Lexer.INT 42;
              Lexer.STAR;
              Lexer.IDENT "baz";
              Lexer.RPAREN;
              Lexer.SEMI;
              Lexer.EOF;
            ]));
    Alcotest.test_case "comments are skipped" `Quick (fun () ->
        Alcotest.(check bool)
          "tokens" true
          (toks_of "a // line comment\n /* block \n comment */ b"
          = [ Lexer.IDENT "a"; Lexer.IDENT "b"; Lexer.EOF ]));
    Alcotest.test_case "directives" `Quick (fun () ->
        Alcotest.(check bool)
          "tokens" true
          (toks_of "#include <CL/cl.h>\n#define CL_TRUE 1\n#define NEG -5\nx"
          = [
              Lexer.INCLUDE "CL/cl.h";
              Lexer.DEFINE ("CL_TRUE", 1);
              Lexer.DEFINE ("NEG", -5);
              Lexer.IDENT "x";
              Lexer.EOF;
            ]));
    Alcotest.test_case "strings and equality" `Quick (fun () ->
        Alcotest.(check bool)
          "tokens" true
          (toks_of {|"hello" == 3|}
          = [ Lexer.STRING "hello"; Lexer.EQEQ; Lexer.INT 3; Lexer.EOF ]));
    Alcotest.test_case "errors carry line numbers" `Quick (fun () ->
        match Lexer.tokenize "ok\nok\n\x01" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e ->
            Alcotest.(check bool) "line 3" true
              (String.length e >= 6 && String.sub e 0 6 = "line 3"));
    Alcotest.test_case "unterminated comment rejected" `Quick (fun () ->
        match Lexer.tokenize "/* never closed" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error _ -> ());
  ]

let header_src =
  {|
#define CL_SUCCESS 0
typedef int cl_int;
typedef unsigned int cl_uint;
typedef struct _cl_mem *cl_mem;
cl_int doWork(cl_mem buf, size_t size, const float *input, float *output);
cl_mem makeThing(cl_int kind, cl_int *errcode_ret);
|}

let parse_header src =
  match Cheader.parse src with
  | Ok h -> h
  | Error e -> Alcotest.failf "header parse error: %s" e

(* [Ast.eval] over a named env, its two failures as values. *)
let eval env e =
  match Ast.eval Ast.env_lookup env () e with
  | v -> Ok v
  | exception (Ast.Unbound_param | Ast.Zero_divisor as exn) -> Error exn

let cheader_tests =
  [
    Alcotest.test_case "typedefs, handles, constants, decls" `Quick (fun () ->
        let h = parse_header header_src in
        Alcotest.(check (list string)) "handles" [ "cl_mem" ]
          h.Cheader.h_handles;
        Alcotest.(check int) "constants" 1 (List.length h.Cheader.h_constants);
        Alcotest.(check int) "decls" 2 (List.length h.Cheader.h_decls);
        Alcotest.(check bool) "cl_int is integer" true
          (List.assoc_opt "cl_int" h.Cheader.h_typedefs
          = Some (Ast.Int { signed = true; bits = 32 }));
        Alcotest.(check bool) "cl_mem is handle" true
          (Cheader.is_handle h (Ast.Named "cl_mem")));
    Alcotest.test_case "declaration shapes" `Quick (fun () ->
        let h = parse_header header_src in
        let d = Option.get (Cheader.find_decl h "doWork") in
        Alcotest.(check int) "params" 4 (List.length d.Cheader.d_params);
        (match List.assoc "input" d.Cheader.d_params with
        | Ast.Ptr { const = true; pointee = Ast.Float 32 } -> ()
        | ty -> Alcotest.failf "input type wrong: %s" (Ast.ctype_to_string ty));
        match List.assoc "output" d.Cheader.d_params with
        | Ast.Ptr { const = false; _ } -> ()
        | _ -> Alcotest.fail "output should be non-const pointer");
    Alcotest.test_case "unknown type rejected" `Quick (fun () ->
        match Cheader.parse "mystery_t f(int x);" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e ->
            Alcotest.(check bool) "mentions type" true
              (String.length e > 0));
    Alcotest.test_case "void parameter list" `Quick (fun () ->
        let h = parse_header "int f(void);" in
        let d = Option.get (Cheader.find_decl h "f") in
        Alcotest.(check int) "no params" 0 (List.length d.Cheader.d_params));
    Alcotest.test_case "embedded headers parse completely" `Quick (fun () ->
        let cl = parse_header Specs.simcl_header in
        Alcotest.(check int) "39 decls" 39 (List.length cl.Cheader.h_decls);
        Alcotest.(check int) "8 handle types" 8
          (List.length cl.Cheader.h_handles);
        let nc = parse_header Specs.mvnc_header in
        Alcotest.(check int) "10 decls" 10 (List.length nc.Cheader.h_decls));
  ]

let infer_tests =
  [
    Alcotest.test_case "const pointer becomes in-buffer" `Quick (fun () ->
        let h = parse_header header_src in
        let d = Option.get (Cheader.find_decl h "doWork") in
        let spec = Infer.preliminary h d in
        let input =
          List.find (fun p -> p.Ast.p_name = "input") spec.Ast.f_params
        in
        Alcotest.(check string) "direction" "in"
          (Ast.direction_to_string input.Ast.p_direction);
        (* "size" naming convention found the buffer length. *)
        match input.Ast.p_kind with
        | Ast.Buffer { len = Ast.Param "size"; elem_size = 4 } -> ()
        | _ -> Alcotest.fail "input buffer not inferred from size param");
    Alcotest.test_case "handle and out-element inference" `Quick (fun () ->
        let h = parse_header header_src in
        let d = Option.get (Cheader.find_decl h "makeThing") in
        let spec = Infer.preliminary h d in
        let err =
          List.find (fun p -> p.Ast.p_name = "errcode_ret") spec.Ast.f_params
        in
        (match err.Ast.p_kind with
        | Ast.Buffer _ | Ast.Unknown ->
            (* cl_int* is data, not handle: needs refinement *)
            ()
        | Ast.Element _ -> ()
        | _ -> Alcotest.fail "errcode_ret misclassified");
        Alcotest.(check string) "record class" "object_alloc"
          (Ast.record_class_to_string spec.Ast.f_record));
    Alcotest.test_case "unresolvable buffer raises guidance" `Quick (fun () ->
        let h = parse_header "int f(const char *mystery);" in
        let d = Option.get (Cheader.find_decl h "f") in
        let spec = Infer.preliminary h d in
        Alcotest.(check bool) "has question" true
          (List.length spec.Ast.f_unresolved > 0);
        let m = List.hd spec.Ast.f_params in
        Alcotest.(check bool) "unknown kind" true (m.Ast.p_kind = Ast.Unknown));
    Alcotest.test_case "annotations override inference" `Quick (fun () ->
        let h = parse_header "int f(const char *mystery);" in
        let d = Option.get (Cheader.find_decl h "f") in
        let prelim = Infer.preliminary h d in
        let ann =
          {
            Infer.empty_fn_ann with
            Infer.an_params =
              [
                ( "mystery",
                  {
                    Infer.empty_param_ann with
                    Infer.a_kind =
                      Some (Ast.Buffer { len = Ast.Const 16; elem_size = 1 });
                  } );
              ];
          }
        in
        let refined = Infer.apply_annotations prelim ann in
        Alcotest.(check int) "no open questions" 0
          (List.length refined.Ast.f_unresolved);
        match (List.hd refined.Ast.f_params).Ast.p_kind with
        | Ast.Buffer { len = Ast.Const 16; _ } -> ()
        | _ -> Alcotest.fail "annotation not applied");
    Alcotest.test_case "simst header inference raises targeted guidance"
      `Quick (fun () ->
        (* What [ava_gen infer specs/simst.h] walks: preliminary specs
           for all 16 declarations.  The buffer conventions resolve
           even stLaunchKernel's [name]/[name_size] pair, but
           stBatchSubmit's [ticket] out-pointer has no derivable
           length, so the developer must get a question about it
           rather than a silent misclassification. *)
        let h = parse_header Specs.simst_header in
        Alcotest.(check int) "16 decls" 16 (List.length h.Cheader.h_decls);
        let prelims = List.map (Infer.preliminary h) h.Cheader.h_decls in
        let spec =
          {
            Ast.api_name = "simst";
            includes = [];
            constants = [];
            types = [];
            fns = prelims;
          }
        in
        let guidance = Validate.guidance spec in
        Alcotest.(check bool) "some guidance" true (guidance <> []);
        let launch =
          List.find (fun f -> f.Ast.f_name = "stLaunchKernel") prelims
        in
        Alcotest.(check int) "name/name_size convention resolves launch" 0
          (List.length launch.Ast.f_unresolved);
        let submit =
          List.find (fun f -> f.Ast.f_name = "stBatchSubmit") prelims
        in
        Alcotest.(check bool) "ticket length questioned" true
          (List.exists
             (fun q -> contains q "ticket")
             submit.Ast.f_unresolved));
    Alcotest.test_case "record-class name heuristics" `Quick (fun () ->
        let check name expected =
          Alcotest.(check string) name expected
            (Ast.record_class_to_string (Infer.guess_record_class name))
        in
        check "clCreateBuffer" "object_alloc";
        check "clReleaseContext" "object_dealloc";
        check "clSetKernelArg" "object_modify";
        check "cuInit" "global_config";
        check "clWaitForEvents" "no_record");
  ]

let spec_text =
  {|
api("demo");
#include "demo.h"
type(cl_int) { success(CL_SUCCESS); }

cl_int doWork(cl_mem buf, size_t size, const float *input, float *output) {
  if (size == 0) sync; else async;
  parameter(output) { out; buffer(size, 4); }
  resource(bus_bytes, size * 4);
  record(object_modify);
  parameter(buf) { target; }
}
|}

let resolve_demo = function
  | "demo.h" -> Some header_src
  | other -> Specs.resolve_builtin_include other

let parse_spec text =
  match Parser.parse ~resolve_include:resolve_demo text with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse error line %d: %s" e.Parser.line e.Parser.message

let parser_tests =
  [
    Alcotest.test_case "full spec parses" `Quick (fun () ->
        let spec = parse_spec spec_text in
        Alcotest.(check string) "api" "demo" spec.Ast.api_name;
        Alcotest.(check int) "one function" 1 (List.length spec.Ast.fns);
        let fn = List.hd spec.Ast.fns in
        (match fn.Ast.f_sync with
        | Ast.Sync_if { cond_param = "size"; cond_const = "0" } -> ()
        | _ -> Alcotest.fail "sync condition wrong");
        Alcotest.(check int) "one resource" 1 (List.length fn.Ast.f_resources);
        let buf = List.find (fun p -> p.Ast.p_name = "buf") fn.Ast.f_params in
        Alcotest.(check bool) "target" true buf.Ast.p_target);
    Alcotest.test_case "signature mismatch with header rejected" `Quick
      (fun () ->
        let bad =
          {|
#include "demo.h"
cl_int doWork(cl_mem buf, size_t size) { sync; }
|}
        in
        match Parser.parse ~resolve_include:resolve_demo bad with
        | Ok _ -> Alcotest.fail "should reject wrong signature"
        | Error e ->
            Alcotest.(check bool) "mentions mismatch" true
              (String.length e.Parser.message > 0));
    Alcotest.test_case "unknown include rejected" `Quick (fun () ->
        match
          Parser.parse ~resolve_include:(fun _ -> None) "#include \"nope.h\""
        with
        | Ok _ -> Alcotest.fail "should reject"
        | Error _ -> ());
    Alcotest.test_case "unknown annotation rejected with line" `Quick
      (fun () ->
        let bad =
          {|
#include "demo.h"
cl_int doWork(cl_mem buf, size_t size, const float *input, float *output) {
  frobnicate;
}
|}
        in
        match Parser.parse ~resolve_include:resolve_demo bad with
        | Ok _ -> Alcotest.fail "should reject"
        | Error e -> Alcotest.(check int) "line" 4 e.Parser.line);
    Alcotest.test_case "size expressions parse with precedence" `Quick
      (fun () ->
        let spec = parse_spec spec_text in
        let fn = List.hd spec.Ast.fns in
        let _, e = List.hd fn.Ast.f_resources in
        match eval [ ("size", 10) ] e with
        | Ok 40 -> ()
        | Ok n -> Alcotest.failf "size*4 with size=10 gave %d" n
        | Error _ -> Alcotest.fail "size*4 with size=10 failed");
  ]

let validate_tests =
  [
    Alcotest.test_case "embedded specs are complete" `Quick (fun () ->
        Alcotest.(check (list string)) "simcl" []
          (List.map
             (fun i -> Fmt.str "%a" Validate.pp_issue i)
             (Validate.check (Specs.load_simcl ())));
        Alcotest.(check (list string)) "mvnc" []
          (List.map
             (fun i -> Fmt.str "%a" Validate.pp_issue i)
             (Validate.check (Specs.load_mvnc ())));
        Alcotest.(check (list string)) "simst" []
          (List.map
             (fun i -> Fmt.str "%a" Validate.pp_issue i)
             (Validate.check (Specs.load_simst ()))));
    Alcotest.test_case "unresolved kind is an issue" `Quick (fun () ->
        let h = parse_header "int f(const char *mystery);" in
        let d = Option.get (Cheader.find_decl h "f") in
        let prelim = Infer.preliminary h d in
        let spec =
          {
            Ast.api_name = "t";
            includes = [];
            constants = [];
            types = [];
            fns = [ prelim ];
          }
        in
        Alcotest.(check bool) "incomplete" true (Validate.check spec <> []);
        Alcotest.(check int) "guidance" 1 (List.length (Validate.guidance spec)));
    Alcotest.test_case "bad buffer length reference is an issue" `Quick
      (fun () ->
        let spec = parse_spec spec_text in
        let fn = List.hd spec.Ast.fns in
        let broken =
          {
            fn with
            Ast.f_params =
              List.map
                (fun p ->
                  if p.Ast.p_name = "output" then
                    {
                      p with
                      Ast.p_kind =
                        Ast.Buffer
                          { len = Ast.Param "no_such_param"; elem_size = 4 };
                    }
                  else p)
                fn.Ast.f_params;
          }
        in
        let spec = { spec with Ast.fns = [ broken ] } in
        Alcotest.(check bool) "has issues" true (Validate.check spec <> []));
    Alcotest.test_case "sync condition on unknown constant" `Quick (fun () ->
        let spec = parse_spec spec_text in
        let fn = List.hd spec.Ast.fns in
        let broken =
          {
            fn with
            Ast.f_sync =
              Ast.Sync_if { cond_param = "size"; cond_const = "NO_SUCH" };
          }
        in
        Alcotest.(check bool) "has issues" true
          (Validate.check { spec with Ast.fns = [ broken ] } <> []));
  ]

let roundtrip_tests =
  [
    Alcotest.test_case "pretty-printed simcl spec reparses equivalently"
      `Quick (fun () ->
        let spec = Specs.load_simcl () in
        let printed = Fmt.str "%a" Pretty.pp_spec spec in
        match
          Parser.parse ~resolve_include:Specs.resolve_builtin_include printed
        with
        | Error e ->
            Alcotest.failf "reparse failed at line %d: %s\n%s" e.Parser.line
              e.Parser.message printed
        | Ok spec2 ->
            Alcotest.(check int) "same function count"
              (List.length spec.Ast.fns)
              (List.length spec2.Ast.fns);
            List.iter2
              (fun (a : Ast.fn_spec) (b : Ast.fn_spec) ->
                Alcotest.(check string) "name" a.Ast.f_name b.Ast.f_name;
                Alcotest.(check bool)
                  (a.Ast.f_name ^ " sync class survives")
                  true
                  (a.Ast.f_sync = b.Ast.f_sync);
                Alcotest.(check bool)
                  (a.Ast.f_name ^ " record class survives")
                  true
                  (a.Ast.f_record = b.Ast.f_record);
                List.iter2
                  (fun (pa : Ast.param_spec) (pb : Ast.param_spec) ->
                    Alcotest.(check bool)
                      (a.Ast.f_name ^ "." ^ pa.Ast.p_name ^ " kind survives")
                      true
                      (pa.Ast.p_kind = pb.Ast.p_kind
                      && pa.Ast.p_direction = pb.Ast.p_direction
                      && pa.Ast.p_deallocates = pb.Ast.p_deallocates
                      && pa.Ast.p_target = pb.Ast.p_target))
                  a.Ast.f_params b.Ast.f_params)
              spec.Ast.fns spec2.Ast.fns);
    Alcotest.test_case "mvnc and qat specs also roundtrip" `Quick (fun () ->
        List.iter
          (fun spec ->
            let printed = Fmt.str "%a" Pretty.pp_spec spec in
            match
              Parser.parse ~resolve_include:Specs.resolve_builtin_include
                printed
            with
            | Error e ->
                Alcotest.failf "%s reparse failed line %d: %s"
                  spec.Ast.api_name e.Parser.line e.Parser.message
            | Ok spec2 ->
                Alcotest.(check int)
                  (spec.Ast.api_name ^ " functions survive")
                  (List.length spec.Ast.fns)
                  (List.length spec2.Ast.fns);
                List.iter2
                  (fun (a : Ast.fn_spec) (b : Ast.fn_spec) ->
                    Alcotest.(check bool)
                      (a.Ast.f_name ^ " equivalent")
                      true
                      (a.Ast.f_sync = b.Ast.f_sync
                      && a.Ast.f_record = b.Ast.f_record
                      && List.for_all2
                           (fun (pa : Ast.param_spec) (pb : Ast.param_spec) ->
                             pa.Ast.p_kind = pb.Ast.p_kind
                             && pa.Ast.p_direction = pb.Ast.p_direction)
                           a.Ast.f_params b.Ast.f_params))
                  spec.Ast.fns spec2.Ast.fns)
          [ Specs.load_mvnc (); Specs.load_qat () ]);
    Alcotest.test_case "simst stream annotations survive roundtrip" `Quick
      (fun () ->
        let spec = Specs.load_simst () in
        let printed = Fmt.str "%a" Pretty.pp_spec spec in
        match
          Parser.parse ~resolve_include:Specs.resolve_builtin_include printed
        with
        | Error e ->
            Alcotest.failf "simst reparse failed line %d: %s\n%s"
              e.Parser.line e.Parser.message printed
        | Ok spec2 ->
            Alcotest.(check int) "functions survive"
              (List.length spec.Ast.fns)
              (List.length spec2.Ast.fns);
            List.iter2
              (fun (a : Ast.fn_spec) (b : Ast.fn_spec) ->
                Alcotest.(check bool)
                  (a.Ast.f_name ^ " sync/stream/record survive")
                  true
                  (a.Ast.f_sync = b.Ast.f_sync
                  && a.Ast.f_stream = b.Ast.f_stream
                  && a.Ast.f_record = b.Ast.f_record
                  && a.Ast.f_resources = b.Ast.f_resources))
              spec.Ast.fns spec2.Ast.fns;
            (* The stream-ordering forms actually occur: at least one
               sync_on, one ava_stream and one Div resource estimate
               (the batch queue_slots model), so the checks above are
               not vacuous. *)
            let any f = List.exists f spec2.Ast.fns in
            Alcotest.(check bool) "has sync_on" true
              (any (fun fn ->
                   match fn.Ast.f_sync with
                   | Ast.Sync_on _ -> true
                   | _ -> false));
            Alcotest.(check bool) "has ava_stream" true
              (any (fun fn -> fn.Ast.f_stream <> None));
            let rec has_div = function
              | Ast.Div _ -> true
              | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) ->
                  has_div a || has_div b
              | Ast.Const _ | Ast.Param _ -> false
            in
            Alcotest.(check bool) "has Div estimate" true
              (any (fun fn ->
                   List.exists (fun (_, e) -> has_div e) fn.Ast.f_resources)));
    Alcotest.test_case "guidance text renders" `Quick (fun () ->
        let h = parse_header "int f(const char *mystery);" in
        let d = Option.get (Cheader.find_decl h "f") in
        let prelim = Infer.preliminary h d in
        let spec =
          {
            Ast.api_name = "t";
            includes = [];
            constants = [];
            types = [];
            fns = [ prelim ];
          }
        in
        let text = Fmt.str "%a" Pretty.pp_guidance spec in
        Alcotest.(check bool) "mentions f" true
          (String.length text > 0
          && String.index_opt text 'f' <> None));
  ]

let fidelity_tests =
  [
    Alcotest.test_case "async fidelity losses are enumerated" `Quick
      (fun () ->
        let notes = Validate.fidelity_report (Specs.load_simcl ()) in
        Alcotest.(check bool) "nonempty" true (List.length notes > 10);
        (* Every async function appears. *)
        let spec = Specs.load_simcl () in
        List.iter
          (fun (fn : Ast.fn_spec) ->
            if fn.Ast.f_sync = Ast.Async then
              Alcotest.(check bool)
                (fn.Ast.f_name ^ " noted")
                true
                (List.exists
                   (fun n -> n.Validate.fn_note = fn.Ast.f_name)
                   notes))
          spec.Ast.fns);
    Alcotest.test_case "async outputs get special-case notes" `Quick
      (fun () ->
        let notes = Validate.fidelity_report (Specs.load_simcl ()) in
        Alcotest.(check bool) "write-buffer event id note" true
          (List.exists
             (fun n ->
               n.Validate.fn_note = "clEnqueueWriteBuffer"
               && contains n.Validate.note "guest-assigned")
             notes));
    Alcotest.test_case "clean sync functions produce no notes" `Quick
      (fun () ->
        let notes = Validate.fidelity_report (Specs.load_simcl ()) in
        Alcotest.(check bool) "clFinish silent" true
          (not
             (List.exists (fun n -> n.Validate.fn_note = "clFinish") notes)));
  ]

(* Random size expressions over the demo spec's [size] parameter, for
   the pretty -> reparse equivalence property.  [expr_to_string] is
   fully parenthesized, so structural equality must survive exactly. *)
let expr_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof [ map (fun c -> Ast.Const c) (int_range 0 20); return (Ast.Param "size") ]
          else
            let sub = self (n / 2) in
            oneof
              [
                map (fun c -> Ast.Const c) (int_range 0 20);
                return (Ast.Param "size");
                map2 (fun a b -> Ast.Add (a, b)) sub sub;
                map2 (fun a b -> Ast.Sub (a, b)) sub sub;
                map2 (fun a b -> Ast.Mul (a, b)) sub sub;
                map2 (fun a b -> Ast.Div (a, b)) sub sub;
              ])
        (min n 8))

let expr_arb = QCheck.make ~print:Ast.expr_to_string expr_gen

let reparse_resource_expr printed =
  let text =
    Printf.sprintf
      {|
api("demo");
#include "demo.h"
type(cl_int) { success(CL_SUCCESS); }

cl_int doWork(cl_mem buf, size_t size, const float *input, float *output) {
  sync;
  parameter(output) { out; buffer(size, 4); }
  resource(device_time, %s);
}
|}
      printed
  in
  let spec = parse_spec text in
  let fn = List.hd spec.Ast.fns in
  snd (List.hd fn.Ast.f_resources)

let expr_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"expr eval matches reference" ~count:300
         QCheck.(triple (int_range 0 1000) (int_range 0 1000) (int_range 0 1000))
         (fun (a, b, c) ->
           let env = [ ("a", a); ("b", b); ("c", c) ] in
           let e =
             Ast.Add (Ast.Mul (Ast.Param "a", Ast.Param "b"),
                      Ast.Sub (Ast.Param "c", Ast.Const 7))
           in
           eval env e = Ok ((a * b) + (c - 7))));
    Alcotest.test_case "unbound parameter reported" `Quick (fun () ->
        match eval [] (Ast.Param "ghost") with
        | Error Ast.Unbound_param -> ()
        | Error _ -> Alcotest.fail "expected Unbound_param"
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "division evaluates, zero divisor is an error" `Quick
      (fun () ->
        Alcotest.(check bool) "128/4 = 32" true
          (eval [] (Ast.Div (Ast.Const 128, Ast.Const 4)) = Ok 32);
        Alcotest.(check bool) "batch_size/item_size" true
          (eval
             [ ("batch_size", 96); ("item_size", 3) ]
             (Ast.Div (Ast.Param "batch_size", Ast.Param "item_size"))
          = Ok 32);
        (match eval [] (Ast.Div (Ast.Const 10, Ast.Const 0)) with
        | Error Ast.Zero_divisor -> ()
        | Error _ -> Alcotest.fail "expected Zero_divisor"
        | Ok n -> Alcotest.failf "10/0 evaluated to %d" n);
        (* A failing operand wins over the zero check: errors propagate. *)
        match eval [] (Ast.Div (Ast.Param "ghost", Ast.Const 0)) with
        | Error Ast.Unbound_param -> ()
        | Error _ -> Alcotest.fail "expected Unbound_param"
        | Ok _ -> Alcotest.fail "unbound numerator should error");
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"expr pretty then reparse is identity"
         ~count:100 expr_arb (fun e ->
           reparse_resource_expr (Ast.expr_to_string e) = e));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"reparsed expr evaluates identically" ~count:100
         QCheck.(pair expr_arb (int_range 0 64))
         (fun (e, size) ->
           let env = [ ("size", size) ] in
           eval env (reparse_resource_expr (Ast.expr_to_string e))
           = eval env e));
  ]

let () =
  Alcotest.run "ava_spec"
    [
      ("lexer", lexer_tests);
      ("cheader", cheader_tests);
      ("infer", infer_tests);
      ("parser", parser_tests);
      ("validate", validate_tests);
      ("roundtrip", roundtrip_tests);
      ("fidelity", fidelity_tests);
      ("expr", expr_tests);
    ]
