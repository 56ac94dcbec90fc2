(** CAvA backend, part 2: emit C-like source artifacts.

    The guest-library and API-server sources CAvA would hand to a C
    toolchain.  In this reproduction the OCaml runtime executes the
    equivalent {!Plan} directly, so the emitted text is a demonstration
    artifact — but faithful enough to measure the paper's automation
    claims: how many lines the developer did {e not} write. *)

open Ava_spec.Ast

(** Everything CAvA emits for one API, with line counts. *)
type artifacts = {
  art_guest_library : string;
  art_api_server : string;
  art_guest_driver : string;
  art_total_loc : int;
}

val generate : api_spec -> artifacts
