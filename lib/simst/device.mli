(** The simulated stream accelerator: per-stream in-order work queues in
    front of a roofline compute model, plus an NPU-style batch engine.

    Three timing presets model distinct device classes — a balanced
    stream device, a GPU-class part (fast kernels, slow batches) and an
    NPU-class part (fast batches, weak kernels) — so capability-aware
    placement in a heterogeneous pool is measurable, not cosmetic. *)

open Ava_sim

type timing = {
  launch_ns : Time.t;  (** enqueue/launch overhead per op *)
  flops_per_s : float;  (** peak compute rate *)
  membw_bytes_per_s : float;  (** device memory bandwidth *)
  pcie_bytes_per_s : float;  (** host<->device copy rate *)
  batch_item_ns : Time.t;  (** per-item inference latency *)
  queue_slots : int;  (** batch queue depth, in items *)
  mem_bytes : int;  (** device memory capacity *)
}

val sm_stream : timing
(** Balanced stream device. *)

val gpu_class : timing
(** GPU-class: 4 TFLOP/s kernels, 200 us/item emulated inference. *)

val npu_class : timing
(** NPU-class: 8 us/item inference, weak kernels, deep batch queue. *)

type t
type stream
type event

val create : ?timing:timing -> Engine.t -> t
val engine_of : t -> Engine.t
val timing : t -> timing

(** {1 Streams and events} *)

val stream_create : t -> stream
val stream_destroy : t -> stream -> unit

val enqueue :
  ?kernels:int -> t -> stream -> cost:Time.t -> (ok:bool -> unit) -> unit
(** Enqueue one op behind everything already on the stream.  The worker
    charges [cost] of device time, then runs the action; on a killed
    device queues drain instantly with [ok = false]. *)

val stream_sync : stream -> unit
(** Block the calling process until the stream's current tail runs. *)

val event_create : unit -> event
(** Unrecorded events are complete, as in CUDA. *)

val event_record : event -> stream -> unit
val event_sync : event -> unit

val stream_wait_event : t -> stream -> event -> unit
(** Enqueue a wait for the event as recorded at call time. *)

val quiesce : t -> unit
(** Wait for every stream's tail — the migration barrier. *)

(** {1 Device memory} *)

val alloc : t -> size:int -> (int, [ `Invalid | `Nomem ]) result
val free : t -> int -> bool
val find_mem : t -> int -> Bytes.t option
val capacity : t -> int

(** {1 Cost model} *)

val copy_cost : t -> bytes:int -> Time.t
val sync_copy : t -> bytes:int -> unit
(** Charge a synchronous readback to the calling process. *)

val kernel_cost : t -> n:int -> flops_per_item:int -> bytes_per_item:int -> Time.t
val batch_cost : t -> items:int -> bytes:int -> Time.t

(** {1 Accounting and faults} *)

val busy_ns : t -> Time.t
val kernels_executed : t -> int
val kill : t -> unit
val killed : t -> bool

(** {1 Reference semantics} *)

val batch_scores : batch:bytes -> item_size:int -> bytes
(** Checkable scoring model: per item, the sum of its bytes as int32le. *)
