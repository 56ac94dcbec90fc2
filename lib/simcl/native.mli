(** The native SimCL user-mode stack (public API + user-mode driver).

    {!create} returns a fresh first-class module implementing
    {!Api.S} with its own handle namespace over a shared kernel driver —
    one instance per host process, which is the process-level isolation
    AvA's API servers rely on.

    Command-queue semantics follow OpenCL's in-order queues.
    Ring-destined operations (kernels, copies, fills) with no wait list
    are submitted straight to the FIFO hardware ring and pipeline back to
    back; operations completing outside the ring (DMA reads/writes) chain
    on the previous operation's completion. *)

type st
(** Instance state (opaque; exposed for introspection and migration). *)

val create : ?client:int -> ?owned:bool -> Kdriver.t -> (module Api.S) * st
(** [client] attributes this instance's device commands to a VM for
    targeted fault injection (defaults to 0).
    [owned] (default [false]): the caller never writes an input
    payload again, so one a call keeps past its return is used in place
    instead of snapshotted.  Only an API server's silo instance owns
    its inputs (its request segments are frozen); a native caller may
    overwrite a non-blocking call's source at once. *)

(** {1 Introspection} *)

val live_events : st -> int
val live_mems : st -> int

val find_mem : st -> Types.mem -> Ava_device.Gpu.buffer option
(** Device buffer behind a mem handle (migration snapshot/restore). *)

val quiesce : st -> unit
(** Block until every command queue has drained (each queue's tail
    event completes; in-order queues make that cover the whole queue).
    Deferred per-queue errors are left armed.  A migration must quiesce
    before snapshotting buffers: a kernel the device already accepted
    applies its memory effect only at completion, so an early snapshot
    would copy pre-kernel bytes and the destination would replay stale
    data.  Must run inside a simulation process. *)

val kdriver : st -> Kdriver.t
