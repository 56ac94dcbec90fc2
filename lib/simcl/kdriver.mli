(** SimCL kernel-mode driver: the bottom of the silo.

    Entered through an ioctl (each charging the user/kernel crossing),
    it owns the device-buffer lifecycle, writes command descriptors
    through an MMIO {!Ava_device.Mmio.port} — so the {e same} driver
    runs natively, under pass-through, or fully trapped — performs DMA,
    and fields completion interrupts.

    The choice of port and the per-page DMA surcharge are the only knobs
    a virtualization technique can turn: exactly the paper's point that
    silos expose no clean internal seams. *)

open Ava_device

type t

val create : ?port:Mmio.port -> ?per_page_ns:Ava_sim.Time.t -> Gpu.t -> t
(** Defaults to a native port with no per-page surcharge. *)

val engine : t -> Ava_sim.Engine.t
val gpu : t -> Gpu.t

val alloc_buffer : t -> size:int -> (Gpu.buffer, [ `Out_of_memory ]) result
val free_buffer : t -> int -> unit

val submit : ?client:int -> t -> Gpu.kernel_work -> Gpu.completion
(** Write the descriptor and ring the doorbell; returns immediately with
    the command's completion record.  [client] attributes the command
    to a VM for targeted fault injection. *)

val wait : t -> Gpu.completion -> unit
(** Block until a command completes, plus interrupt delivery time. *)

val write_buffer :
  ?client:int -> t -> buf:Gpu.buffer -> offset:int -> src:bytes -> unit

val read_into :
  ?client:int -> t -> buf:Gpu.buffer -> offset:int -> dst:bytes -> unit
(** Read [Bytes.length dst] bytes from [offset] straight into [dst]. *)

val copy_work :
  src:Gpu.buffer ->
  dst:Gpu.buffer ->
  src_offset:int ->
  dst_offset:int ->
  size:int ->
  Gpu.kernel_work
(** Device-to-device copy as a ring command (orders with kernels). *)

val fill_work :
  buf:Gpu.buffer -> pattern:char -> offset:int -> size:int -> Gpu.kernel_work
