(* The SimCL public API: the single stable interface of the accelerator
   silo (the one AvA interposes).

   39 entry points mirroring the commonly used core of OpenCL 1.2 — the
   same count the AvA prototype para-virtualized.  Workloads are written
   against this module type and run unchanged over the native silo, the
   pass-through silo, the full-virtualization silo or any AvA-generated
   remoting stack. *)

open Types

module type S = sig
  (* Platform / device discovery *)
  val clGetPlatformIDs : unit -> platform_id list result
  val clGetPlatformInfo : platform_id -> platform_info -> string result
  val clGetDeviceIDs : platform_id -> device_type -> device_id list result
  val clGetDeviceInfo : device_id -> device_info -> info_value result

  (* Contexts *)
  val clCreateContext : device_id list -> context result
  val clRetainContext : context -> unit result
  val clReleaseContext : context -> unit result
  val clGetContextInfo : context -> int result
  (** Returns the context's reference count. *)

  (* Command queues *)
  val clCreateCommandQueue :
    context -> device_id -> profiling:bool -> command_queue result

  val clRetainCommandQueue : command_queue -> unit result
  val clReleaseCommandQueue : command_queue -> unit result

  val clGetCommandQueueInfo : command_queue -> context result
  (** Returns the queue's context. *)

  (* Memory objects *)
  val clCreateBuffer : context -> size:int -> mem result
  val clRetainMemObject : mem -> unit result
  val clReleaseMemObject : mem -> unit result

  val clGetMemObjectInfo : mem -> int result
  (** Returns the buffer size in bytes. *)

  (* Programs *)
  val clCreateProgramWithSource : context -> source:string -> program result
  val clBuildProgram : program -> options:string -> unit result
  val clGetProgramBuildInfo : program -> string result
  val clRetainProgram : program -> unit result
  val clReleaseProgram : program -> unit result

  (* Kernels *)
  val clCreateKernel : program -> name:string -> kernel result
  val clRetainKernel : kernel -> unit result
  val clReleaseKernel : kernel -> unit result
  val clSetKernelArg : kernel -> index:int -> kernel_arg -> unit result

  val clGetKernelInfo : kernel -> string result
  (** Returns the kernel's function name. *)

  val clGetKernelWorkGroupInfo : kernel -> device_id -> int result
  (** Returns the maximum work-group size for the device. *)

  (* Enqueue operations.  [want_event] mirrors passing a non-NULL
     [cl_event *event]: when false, no event handle is allocated. *)
  val clEnqueueNDRangeKernel :
    command_queue ->
    kernel ->
    global_work_size:int ->
    local_work_size:int ->
    wait_list:event list ->
    want_event:bool ->
    event option result

  val clEnqueueTask :
    command_queue ->
    kernel ->
    wait_list:event list ->
    want_event:bool ->
    event option result

  val clEnqueueReadBuffer :
    command_queue ->
    mem ->
    blocking:bool ->
    offset:int ->
    size:int ->
    wait_list:event list ->
    want_event:bool ->
    (bytes * event option) result
  (** Returns the bytes read.  When [blocking] is false the returned
      bytes become valid only once the returned event completes; SimCL
      materializes them at completion time, so callers must wait on the
      event before inspecting the data. *)

  val clEnqueueWriteBuffer :
    command_queue ->
    mem ->
    blocking:bool ->
    offset:int ->
    src:bytes ->
    wait_list:event list ->
    want_event:bool ->
    event option result

  val clEnqueueCopyBuffer :
    command_queue ->
    src:mem ->
    dst:mem ->
    src_offset:int ->
    dst_offset:int ->
    size:int ->
    wait_list:event list ->
    want_event:bool ->
    event option result

  val clEnqueueFillBuffer :
    command_queue ->
    mem ->
    pattern:char ->
    offset:int ->
    size:int ->
    wait_list:event list ->
    want_event:bool ->
    event option result

  (* Synchronization *)
  val clFlush : command_queue -> unit result
  val clFinish : command_queue -> unit result
  val clWaitForEvents : event list -> unit result

  (* Events *)
  val clGetEventInfo : event -> event_status result
  val clGetEventProfilingInfo : event -> profiling_info -> int result
  val clReleaseEvent : event -> unit result
end
