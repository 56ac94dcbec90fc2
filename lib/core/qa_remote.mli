(** The AvA-generated guest library for SimQA (QuickAssist) — the §5
    future-work API, virtualized with a few dozen lines of plan-driven
    glue.  See {!Cl_remote} for the shared conventions. *)

val create : Ava_remoting.Stub.t -> (module Ava_simqa.Api.S)
