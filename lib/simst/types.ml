(* SimST public types: a CUDA-driver-flavored stream accelerator — the
   asynchronous, stream-ordered API family (§2, §3.2) whose completion
   points and enqueue semantics the spec language must express. *)

type stream_handle = int
type event_handle = int
type mem_handle = int

type status =
  | St_invalid_value
  | St_out_of_memory
  | St_not_ready
  | St_queue_full
  | St_device_lost
  | St_fail

let status_to_string = function
  | St_invalid_value -> "ST_ERROR_INVALID_VALUE"
  | St_out_of_memory -> "ST_ERROR_OUT_OF_MEMORY"
  | St_not_ready -> "ST_ERROR_NOT_READY"
  | St_queue_full -> "ST_ERROR_QUEUE_FULL"
  | St_device_lost -> "ST_ERROR_DEVICE_LOST"
  | St_fail -> "ST_ERROR_UNKNOWN"

let status_to_code = function
  | St_invalid_value -> -1
  | St_out_of_memory -> -2
  | St_not_ready -> -3
  | St_queue_full -> -4
  | St_device_lost -> -5
  | St_fail -> -6

let status_of_code = function
  | -1 -> St_invalid_value
  | -2 -> St_out_of_memory
  | -3 -> St_not_ready
  | -4 -> St_queue_full
  | -5 -> St_device_lost
  | _ -> St_fail

type 'a result = ('a, status) Stdlib.result

