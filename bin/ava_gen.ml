(* CAvA: the AvA stack generator CLI (the tool of Figure 2).

     ava_gen infer <header.h>       inference: preliminary spec + guidance
     ava_gen check <spec.cava>      validate a refined specification
     ava_gen generate <spec.cava>   emit guest library / server / driver
     ava_gen dump-builtin <dir>     write the embedded headers and specs

   Specs may include the embedded headers ("cl_sim.h", "mvnc_sim.h") or
   any header file in the spec's directory. *)

open Cmdliner
open Ava_spec

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Make [dir] and any missing parents. *)
let rec make_dir dir =
  if not (Sys.file_exists dir) then begin
    make_dir (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path contents =
  make_dir (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Fmt.pr "wrote %s (%d lines)@." path
    (String.fold_left (fun a c -> if c = '\n' then a + 1 else a) 0 contents)

(* Resolve includes against embedded headers, then the spec's directory. *)
let resolver ~dir name =
  match Specs.resolve_builtin_include name with
  | Some text -> Some text
  | None -> (
      let path = Filename.concat dir name in
      if Sys.file_exists path then Some (read_file path) else None)

let parse_spec_file path =
  let dir = Filename.dirname path in
  match Parser.parse ~resolve_include:(resolver ~dir) (read_file path) with
  | Ok spec -> Ok spec
  | Error e ->
      Error (Printf.sprintf "%s:%d: %s" path e.Parser.line e.Parser.message)

(* --- infer -------------------------------------------------------------- *)

let infer_cmd =
  let header_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"HEADER" ~doc:"Unmodified C header of the API.")
  in
  let run header_path =
    match Cheader.parse (read_file header_path) with
    | Error e ->
        Fmt.epr "header parse error: %s@." e;
        1
    | Ok header ->
        let fns = List.map (Infer.preliminary header) header.Cheader.h_decls in
        let spec =
          {
            Ast.api_name = Filename.remove_extension (Filename.basename header_path);
            includes = [ Filename.basename header_path ];
            constants = header.Cheader.h_constants;
            types = [];
            fns;
          }
        in
        Fmt.pr "%a" Pretty.pp_spec spec;
        Fmt.pr "@.// --- guidance ---@.";
        Fmt.pr "%a" Pretty.pp_guidance spec;
        0
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Generate a preliminary CAvA spec from an unmodified header.")
    Term.(const run $ header_arg)

(* --- check --------------------------------------------------------------- *)

let check_cmd =
  let spec_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SPEC" ~doc:"Refined CAvA specification file.")
  in
  let run spec_path =
    match parse_spec_file spec_path with
    | Error e ->
        Fmt.epr "%s@." e;
        1
    | Ok spec -> (
        match Validate.check spec with
        | [] ->
            Fmt.pr "%s: %d functions, specification complete@." spec_path
              (List.length spec.Ast.fns);
            (match Ava_codegen.Plan.compile spec with
            | Ok _ ->
                Fmt.pr "marshalling plan compiles@.";
                let notes = Validate.fidelity_report spec in
                if notes <> [] then begin
                  Fmt.pr "fidelity notes (%d):@." (List.length notes);
                  List.iter
                    (fun n -> Fmt.pr "  %a@." Validate.pp_fidelity n)
                    notes
                end;
                0
            | Error e ->
                Fmt.epr "plan compilation failed: %s@." e;
                1)
        | issues ->
            List.iter (fun i -> Fmt.epr "%a@." Validate.pp_issue i) issues;
            1)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Validate a refined CAvA specification.")
    Term.(const run $ spec_arg)

(* --- generate ------------------------------------------------------------- *)

let generate_cmd =
  let spec_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SPEC" ~doc:"Refined CAvA specification file.")
  in
  let out_arg =
    Arg.(
      value & opt string "."
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run spec_path out_dir =
    match parse_spec_file spec_path with
    | Error e ->
        Fmt.epr "%s@." e;
        1
    | Ok spec -> (
        match Validate.check spec with
        | _ :: _ as issues ->
            Fmt.epr "specification incomplete:@.";
            List.iter (fun i -> Fmt.epr "  %a@." Validate.pp_issue i) issues;
            1
        | [] ->
            let artifacts = Ava_codegen.Emit_c.generate spec in
            let base = Filename.concat out_dir spec.Ast.api_name in
            write_file (base ^ "_guest.c")
              artifacts.Ava_codegen.Emit_c.art_guest_library;
            write_file (base ^ "_server.c")
              artifacts.Ava_codegen.Emit_c.art_api_server;
            write_file (base ^ "_driver.c")
              artifacts.Ava_codegen.Emit_c.art_guest_driver;
            Fmt.pr "total: %d generated LoC for %d functions@."
              artifacts.Ava_codegen.Emit_c.art_total_loc
              (List.length spec.Ast.fns);
            let dir = Filename.dirname spec_path in
            (match spec.Ast.includes with
            | inc :: _ -> (
                match resolver ~dir inc with
                | Some header_source ->
                    let report =
                      Ava_codegen.Metrics.analyze ~header_source
                        ~spec_source:(read_file spec_path) spec
                    in
                    Fmt.pr "%a" Ava_codegen.Metrics.pp_report report
                | None -> ())
            | [] -> ());
            0)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate the API-remoting stack sources from a refined spec.")
    Term.(const run $ spec_arg $ out_arg)

(* --- dump-builtin ----------------------------------------------------------- *)

let dump_cmd =
  let dir_arg =
    Arg.(
      value & pos 0 string "."
      & info [] ~docv:"DIR" ~doc:"Directory to write into.")
  in
  let run dir =
    write_file (Filename.concat dir "cl_sim.h") Specs.simcl_header;
    write_file (Filename.concat dir "simcl.cava") Specs.simcl_spec;
    write_file (Filename.concat dir "mvnc_sim.h") Specs.mvnc_header;
    write_file (Filename.concat dir "mvnc.cava") Specs.mvnc_spec;
    write_file (Filename.concat dir "qa_sim.h") Specs.qat_header;
    write_file (Filename.concat dir "qat.cava") Specs.qat_spec;
    write_file (Filename.concat dir "simst.h") Specs.simst_header;
    write_file (Filename.concat dir "simst.cava") Specs.simst_spec;
    0
  in
  Cmd.v
    (Cmd.info "dump-builtin"
       ~doc:"Write the embedded SimCL/MVNC headers and refined specs to files.")
    Term.(const run $ dir_arg)

let () =
  let info =
    Cmd.info "ava_gen" ~version:"1.0"
      ~doc:"CAvA: generate AvA API-remoting stacks from API specifications."
  in
  exit (Cmd.eval' (Cmd.group info [ infer_cmd; check_cmd; generate_cmd; dump_cmd ]))
