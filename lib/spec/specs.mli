(** Embedded API headers and refined CAvA specifications for the four
    accelerator silos this reproduction virtualizes: SimCL (OpenCL
    subset, 39 functions), MVNC (Movidius NCSDK subset, 10 functions),
    SimQA (QuickAssist subset, 10 functions) and SimST (CUDA-style
    stream accelerator, 16 functions).

    The [*_header] values are the {e unmodified} vendor headers fed to
    inference; the [*_spec] values are the developer-refined CAvA specs
    (the Figure 2 workflow's output) from which the remoting stacks are
    generated.  SimST's pair is embedded at build time from
    [specs/simst.h] and [specs/simst.cava]. *)

val simcl_header : string
val simcl_spec : string
val mvnc_header : string
val mvnc_spec : string
val qat_header : string
val qat_spec : string
val simst_header : string
val simst_spec : string

val resolve_builtin_include : string -> string option
(** Resolves ["cl_sim.h"], ["mvnc_sim.h"], ["qa_sim.h"] and
    ["simst.h"]. *)

(** Parse an embedded refined spec; these always succeed. *)

val load_simcl : unit -> Ast.api_spec
val load_mvnc : unit -> Ast.api_spec
val load_qat : unit -> Ast.api_spec
val load_simst : unit -> Ast.api_spec
