(** The AvA-generated guest library for SimCL.

    Implements the full {!Ava_simcl.Api.S} over a {!Ava_remoting.Stub}:
    this is what a guest application links against instead of the vendor
    library.  Marshalling layout, synchrony and size accounting follow
    the compiled plan of the refined CAvA spec.

    Conventions: one wire value per C parameter, in declaration order;
    object-creating calls return server-assigned virtual ids; event
    out-parameters are guest-assigned ids so asynchronously forwarded
    enqueues hand back a usable handle immediately; async failures
    surface via the stub's deferred-error channel at the next
    synchronous call (§4.2). *)

val create : Ava_remoting.Stub.t -> (module Ava_simcl.Api.S)
