(* Embedded API headers and refined CAvA specifications for the four
   accelerator silos.  The [*_header] values are the *unmodified* vendor
   headers fed to inference; the [*_spec] values are the
   developer-refined CAvA specs (the Figure 2 workflow's output) from
   which the remoting stacks are generated.  All eight are the files
   under specs/, embedded at build time by a rule in this directory's
   dune file. *)

include Spec_files

let resolve_builtin_include = function
  | "cl_sim.h" -> Some simcl_header
  | "mvnc_sim.h" -> Some mvnc_header
  | "qa_sim.h" -> Some qat_header
  | "simst.h" -> Some simst_header
  | _ -> None

(* Parse one of the embedded refined specs; these must always succeed. *)
let load_simcl () =
  match Parser.parse ~resolve_include:resolve_builtin_include simcl_spec with
  | Ok spec -> spec
  | Error e ->
      failwith
        (Printf.sprintf "embedded simcl spec is invalid (line %d): %s"
           e.Parser.line e.Parser.message)

let load_mvnc () =
  match Parser.parse ~resolve_include:resolve_builtin_include mvnc_spec with
  | Ok spec -> spec
  | Error e ->
      failwith
        (Printf.sprintf "embedded mvnc spec is invalid (line %d): %s"
           e.Parser.line e.Parser.message)

let load_qat () =
  match Parser.parse ~resolve_include:resolve_builtin_include qat_spec with
  | Ok spec -> spec
  | Error e ->
      failwith
        (Printf.sprintf "embedded qat spec is invalid (line %d): %s"
           e.Parser.line e.Parser.message)

let load_simst () =
  match Parser.parse ~resolve_include:resolve_builtin_include simst_spec with
  | Ok spec -> spec
  | Error e ->
      failwith
        (Printf.sprintf "embedded simst spec is invalid (line %d): %s"
           e.Parser.line e.Parser.message)
