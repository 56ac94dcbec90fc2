(** Memory-mapped register file.

    The device exposes registers at integer addresses; writes can trigger
    device-side hooks (doorbells).  Access {e cost} is not charged here —
    drivers go through a {!type:port}, whose implementation decides
    whether an access is a cheap native store or a trapped, emulated one.
    This split lets pass-through, full virtualization and API remoting
    share one silo implementation. *)

type t

val create : unit -> t

val write : t -> addr:int -> int64 -> unit
(** Update a register and fire its write hook, if any. *)

val read : t -> addr:int -> int64
(** Unwritten registers read as zero. *)

val on_write : t -> addr:int -> (int64 -> unit) -> unit
(** Install the (single) write hook for an address. *)

val access_count : t -> int

(** A driver's view of the register file with access costs baked in.
    Implementations must be called from within a process. *)
type port = {
  port_write : addr:int -> int64 -> unit;
  port_read : addr:int -> int64;
}

val native_port : t -> timing:Timing.gpu -> port
(** Host or pass-through mapping: cheap uncached accesses. *)

val trapped_port : t -> virt:Timing.virt -> port
(** Full-virtualization mapping: every access costs a VM exit plus
    emulation. *)
