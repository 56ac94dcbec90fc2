(* SimCL public types: handles, enums and error codes.

   Handles are plain integers (like the opaque pointers of real OpenCL)
   so they survive marshalling through any remoting transport unchanged.
   The same types are shared by the native silo implementation and every
   virtualized implementation, which is what lets workloads run
   unmodified on either. *)

type platform_id = int
type device_id = int
type context = int
type command_queue = int
type mem = int
type program = int
type kernel = int
type event = int

type error =
  | Invalid_value
  | Invalid_platform
  | Invalid_device
  | Invalid_context
  | Invalid_command_queue
  | Invalid_mem_object
  | Invalid_program
  | Invalid_program_executable
  | Invalid_kernel_name
  | Invalid_kernel
  | Invalid_arg_index
  | Invalid_arg_value
  | Invalid_event
  | Invalid_operation
  | Mem_object_allocation_failure
  | Out_of_resources
  | Out_of_host_memory
  | Profiling_info_not_available
  | Build_program_failure
  | Device_not_available
      (** The device was lost (hang, TDR reset, quarantine) while this
          command was in flight. *)
  | Remoting_failure of string
      (** Transport/stack failure surfaced by a virtualized implementation;
          has no native counterpart. *)

let error_to_string = function
  | Invalid_value -> "CL_INVALID_VALUE"
  | Invalid_platform -> "CL_INVALID_PLATFORM"
  | Invalid_device -> "CL_INVALID_DEVICE"
  | Invalid_context -> "CL_INVALID_CONTEXT"
  | Invalid_command_queue -> "CL_INVALID_COMMAND_QUEUE"
  | Invalid_mem_object -> "CL_INVALID_MEM_OBJECT"
  | Invalid_program -> "CL_INVALID_PROGRAM"
  | Invalid_program_executable -> "CL_INVALID_PROGRAM_EXECUTABLE"
  | Invalid_kernel_name -> "CL_INVALID_KERNEL_NAME"
  | Invalid_kernel -> "CL_INVALID_KERNEL"
  | Invalid_arg_index -> "CL_INVALID_ARG_INDEX"
  | Invalid_arg_value -> "CL_INVALID_ARG_VALUE"
  | Invalid_event -> "CL_INVALID_EVENT"
  | Invalid_operation -> "CL_INVALID_OPERATION"
  | Mem_object_allocation_failure -> "CL_MEM_OBJECT_ALLOCATION_FAILURE"
  | Out_of_resources -> "CL_OUT_OF_RESOURCES"
  | Out_of_host_memory -> "CL_OUT_OF_HOST_MEMORY"
  | Profiling_info_not_available -> "CL_PROFILING_INFO_NOT_AVAILABLE"
  | Build_program_failure -> "CL_BUILD_PROGRAM_FAILURE"
  | Device_not_available -> "CL_DEVICE_NOT_AVAILABLE"
  | Remoting_failure msg -> "AVA_REMOTING_FAILURE(" ^ msg ^ ")"

(* Stable numeric codes for wire transport (mirrors CL error numbering
   where one exists). *)
let error_to_code = function
  | Invalid_value -> -30
  | Invalid_platform -> -32
  | Invalid_device -> -33
  | Invalid_context -> -34
  | Invalid_command_queue -> -36
  | Invalid_mem_object -> -38
  | Invalid_program -> -44
  | Invalid_program_executable -> -45
  | Invalid_kernel_name -> -46
  | Invalid_kernel -> -48
  | Invalid_arg_index -> -49
  | Invalid_arg_value -> -50
  | Invalid_event -> -58
  | Invalid_operation -> -59
  | Mem_object_allocation_failure -> -4
  | Out_of_resources -> -5
  | Out_of_host_memory -> -6
  | Profiling_info_not_available -> -7
  | Build_program_failure -> -11
  | Device_not_available -> -2
  | Remoting_failure _ -> -9999

let error_of_code = function
  | -30 -> Invalid_value
  | -32 -> Invalid_platform
  | -33 -> Invalid_device
  | -34 -> Invalid_context
  | -36 -> Invalid_command_queue
  | -38 -> Invalid_mem_object
  | -44 -> Invalid_program
  | -45 -> Invalid_program_executable
  | -46 -> Invalid_kernel_name
  | -48 -> Invalid_kernel
  | -49 -> Invalid_arg_index
  | -50 -> Invalid_arg_value
  | -58 -> Invalid_event
  | -59 -> Invalid_operation
  | -4 -> Mem_object_allocation_failure
  | -5 -> Out_of_resources
  | -6 -> Out_of_host_memory
  | -7 -> Profiling_info_not_available
  | -11 -> Build_program_failure
  (* -9005/-9006 are the remoting stack's device-lost / quarantined
     statuses; both surface as CL_DEVICE_NOT_AVAILABLE at the API. *)
  | -2 | -9005 | -9006 -> Device_not_available
  | n -> Remoting_failure (Printf.sprintf "unknown error code %d" n)

type 'a result = ('a, error) Stdlib.result

type device_type = Device_gpu | Device_accelerator | Device_all

type kernel_arg =
  | Arg_mem of mem
  | Arg_int of int
  | Arg_float of float
  | Arg_local of int  (** local-memory allocation size in bytes *)

type platform_info = Platform_name | Platform_vendor | Platform_version

type device_info =
  | Device_name
  | Device_global_mem_size
  | Device_max_compute_units
  | Device_max_work_group_size

type info_value = Info_string of string | Info_int of int

type profiling_info =
  | Profiling_queued
  | Profiling_submit
  | Profiling_start
  | Profiling_end

type event_status = Queued | Submitted | Running | Complete
