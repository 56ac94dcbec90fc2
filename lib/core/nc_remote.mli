(** The AvA-generated guest library for MVNC (Movidius NCSDK).
    See {!Cl_remote} for the shared conventions. *)

type t

val create : Ava_remoting.Stub.t -> (module Ava_simnc.Api.S) * t
