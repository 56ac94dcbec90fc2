(** The simulated GPU.

    Hardware state is a register file, a device-memory heap, a DMA
    engine and a command processor fed by a FIFO hardware ring.  Kernel
    execution time follows a roofline model: launch overhead plus
    [max(flops / peak_flops, bytes / memory_bandwidth)].

    Kernels may carry a semantic action (a host closure over buffer
    contents) so tests and examples can check computational results
    end-to-end through every virtualization stack; pure timing workloads
    omit it. *)

open Ava_sim

val doorbell_addr : int

type buffer = {
  buf_id : int;
  offset : int;  (** offset in device memory *)
  size : int;
  mutable data : Bytes.t;  (** real backing store *)
}

type kernel_work = {
  kernel_name : string;
  work_items : int;
  flops_per_item : float;
  bytes_per_item : float;
  action : (unit -> unit) option;  (** semantic effect, if any *)
}

(** Per-command lifecycle timestamps (OpenCL-style profiling), plus the
    submitting client and a failure flag set by fault injection or a
    device reset. *)
type completion = {
  queued_at : Time.t;
  mutable started_at : Time.t;
  mutable finished_at : Time.t;
  client : int;
  mutable failed : bool;
  done_ : unit Ivar.t;
}

type t

val kernel_duration : Timing.gpu -> kernel_work -> Time.t
(** Roofline execution time for one launch. *)

val create : ?timing:Timing.gpu -> ?devfault:Devfault.t -> Engine.t -> t
(** Also spawns the command-processor process.  Without [devfault]
    (the default) behaviour is bit-identical to a fault-free device. *)

val engine : t -> Engine.t
val timing : t -> Timing.gpu
val mmio : t -> Mmio.t
val dma : t -> Dma.t
val mem : t -> Devmem.t

val busy_ns : t -> Time.t
val kernels_executed : t -> int

val resets : t -> int
(** Device resets performed so far. *)

val wedged : t -> bool
(** Whether the command processor is currently hung on a command. *)

val wedged_by : t -> int option
(** The client whose command is wedging the CP, if any — the server's
    TDR watchdog uses this to blame the culprit rather than whichever
    VM's call happens to time out first. *)

val kill : t -> unit
(** Permanent device loss (the board falls off the bus): the wedged
    command, ring survivors and all future submissions complete as
    failed instantly, and no {!reset} revives the board.  Device memory
    stays readable so an evacuation can still snapshot buffers.
    Idempotent. *)

(** {1 Buffers} *)

val create_buffer : t -> size:int -> (buffer, [ `Out_of_memory ]) result

val destroy_buffer : t -> int -> unit
(** @raise Invalid_argument on an unknown buffer id. *)

val live_buffers : t -> int

(** {1 Execution and data movement} *)

val submit : ?client:int -> t -> kernel_work -> completion
(** Enqueue a command on the hardware ring; [done_] fills at completion
    (check [failed] afterwards).  [client] attributes the command to a
    VM for targeted fault injection; the caller (kernel driver) is
    responsible for doorbell MMIO and interrupt latency. *)

val reset : ?policy:[ `Preserve | `Poison ] -> t -> unit
(** TDR-style device reset: complete the wedged command (if any) as
    failed, resume the command processor so ring survivors drain, and
    preserve or poison ([`Poison]: fill with [0xA5]) device memory. *)

val write_buffer :
  ?per_page_ns:Time.t ->
  ?client:int ->
  t ->
  buf:buffer ->
  offset:int ->
  src:bytes ->
  unit
(** Host-to-device DMA; blocks for the transfer duration. *)

val read_into :
  ?per_page_ns:Time.t ->
  ?client:int ->
  t ->
  buf:buffer ->
  offset:int ->
  dst:bytes ->
  unit
(** Device-to-host DMA of [Bytes.length dst] bytes from [offset] into
    [dst]; blocks for the transfer duration. *)

