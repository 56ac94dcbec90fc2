(* The SimST public API: 16 entry points in the style of the CUDA driver
   API's stream model.  Work (copies, kernels, inference batches) is
   *enqueued* on streams and executes in order per stream; events mark
   positions in a stream and let other streams, or the host, wait on
   them.  This is the API shape that motivates AvA's [ava_async] /
   ordering annotations: most calls return before the device has done
   anything. *)

open Types

module type S = sig
  val stDeviceGetCount : unit -> int result

  (* Streams: in-order work queues. *)
  val stStreamCreate : unit -> stream_handle result
  val stStreamDestroy : stream_handle -> unit result

  val stStreamSynchronize : stream_handle -> unit result
  (** Block until everything enqueued on the stream so far has run. *)

  (* Events: recorded positions in a stream. *)
  val stEventCreate : unit -> event_handle result
  val stEventDestroy : event_handle -> unit result

  val stEventRecord : event_handle -> stream_handle -> unit result
  (** The event completes when all work enqueued on the stream {e before
      this call} has completed; re-recording re-arms it. *)

  val stEventSynchronize : event_handle -> unit result

  val stStreamWaitEvent : stream_handle -> event_handle -> unit result
  (** Enqueue a cross-stream dependency: later work on [stream] waits
      for the event as recorded at call time. *)

  (* Device memory. *)
  val stMemAlloc : size:int -> mem_handle result
  val stMemFree : mem_handle -> unit result

  val stMemcpyHtoDAsync :
    mem_handle -> src:bytes -> stream_handle -> unit result
  (** Enqueue a host-to-device copy; the source is captured at call
      time, as a generated stub must (the guest buffer is reusable the
      moment the call returns). *)

  val stMemcpyDtoH : size:int -> mem_handle -> bytes result
  (** Synchronous device-to-host readback; device-wide sync first. *)

  (* Compute. *)
  val stLaunchKernel :
    stream_handle ->
    name:string ->
    a:mem_handle ->
    b:mem_handle ->
    out:mem_handle ->
    n:int ->
    unit result
  (** Enqueue a built-in kernel over [n] int32 elements ("vadd":
      out[i] = a[i] + b[i]; "scale": out[i] = 2 * a[i]). *)

  (* Queued inference batches, NPU-style. *)
  val stBatchSubmit : stream_handle -> batch:bytes -> item_size:int -> int result
  (** Enqueue a scoring batch of [length batch / item_size] items;
      returns a ticket.  Fails with {!St_queue_full} when the batch
      exceeds the device's queue depth. *)

  val stBatchCollect : stream_handle -> ticket:int -> size:int -> bytes result
  (** Wait for the ticket's batch and return its scores (4 bytes per
      item); a completion point in the sense of [sync_on]. *)
end
