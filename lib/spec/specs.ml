(* Embedded API headers and refined CAvA specifications for the two
   accelerator silos this reproduction virtualizes: SimCL (OpenCL subset,
   39 functions) and MVNC (Movidius NCSDK subset, 10 functions).

   [simcl_header]/[mvnc_header] are the *unmodified* vendor headers fed to
   inference; [simcl_spec]/[mvnc_spec] are the developer-refined CAvA
   specs (the Figure 2 workflow's output) from which the remoting stacks
   are generated. *)

let simcl_header =
  {|
/* SimCL: the public API of the simulated OpenCL silo. */
#define CL_SUCCESS 0
#define CL_TRUE 1
#define CL_FALSE 0
#define CL_DEVICE_TYPE_GPU 4
#define CL_QUEUE_PROFILING_ENABLE 2

typedef int cl_int;
typedef unsigned int cl_uint;
typedef int cl_bool;
typedef struct _cl_platform_id *cl_platform_id;
typedef struct _cl_device_id *cl_device_id;
typedef struct _cl_context *cl_context;
typedef struct _cl_command_queue *cl_command_queue;
typedef struct _cl_mem *cl_mem;
typedef struct _cl_program *cl_program;
typedef struct _cl_kernel *cl_kernel;
typedef struct _cl_event *cl_event;

cl_int clGetPlatformIDs(cl_uint num_entries, cl_platform_id *platforms, cl_uint *num_platforms);
cl_int clGetPlatformInfo(cl_platform_id platform, cl_uint param_name, size_t value_size, char *param_value);
cl_int clGetDeviceIDs(cl_platform_id platform, cl_uint device_type, cl_uint num_entries, cl_device_id *devices, cl_uint *num_devices);
cl_int clGetDeviceInfo(cl_device_id device, cl_uint param_name, size_t value_size, char *param_value);
cl_context clCreateContext(const cl_device_id *devices, cl_uint num_devices, cl_int *errcode_ret);
cl_int clRetainContext(cl_context context);
cl_int clReleaseContext(cl_context context);
cl_int clGetContextInfo(cl_context context, cl_uint *refcount);
cl_command_queue clCreateCommandQueue(cl_context context, cl_device_id device, cl_uint properties, cl_int *errcode_ret);
cl_int clRetainCommandQueue(cl_command_queue command_queue);
cl_int clReleaseCommandQueue(cl_command_queue command_queue);
cl_int clGetCommandQueueInfo(cl_command_queue command_queue, cl_context *context);
cl_mem clCreateBuffer(cl_context context, cl_uint flags, size_t size, cl_int *errcode_ret);
cl_int clRetainMemObject(cl_mem buf);
cl_int clReleaseMemObject(cl_mem buf);
cl_int clGetMemObjectInfo(cl_mem buf, size_t *size);
cl_program clCreateProgramWithSource(cl_context context, const char *source, size_t source_size, cl_int *errcode_ret);
cl_int clBuildProgram(cl_program program, const char *options, size_t options_size);
cl_int clGetProgramBuildInfo(cl_program program, size_t value_size, char *param_value);
cl_int clRetainProgram(cl_program program);
cl_int clReleaseProgram(cl_program program);
cl_kernel clCreateKernel(cl_program program, const char *kernel_name, size_t kernel_name_size, cl_int *errcode_ret);
cl_int clRetainKernel(cl_kernel kernel);
cl_int clReleaseKernel(cl_kernel kernel);
cl_int clSetKernelArg(cl_kernel kernel, cl_uint arg_index, size_t arg_size, const void *arg_value);
cl_int clGetKernelInfo(cl_kernel kernel, size_t value_size, char *param_value);
cl_int clGetKernelWorkGroupInfo(cl_kernel kernel, cl_device_id device, size_t *wg_size);
cl_int clEnqueueNDRangeKernel(cl_command_queue command_queue, cl_kernel kernel, size_t global_work_size, size_t local_work_size, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event);
cl_int clEnqueueTask(cl_command_queue command_queue, cl_kernel kernel, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event);
cl_int clEnqueueReadBuffer(cl_command_queue command_queue, cl_mem buf, cl_bool blocking_read, size_t offset, size_t size, void *ptr, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event);
cl_int clEnqueueWriteBuffer(cl_command_queue command_queue, cl_mem buf, cl_bool blocking_write, size_t offset, size_t size, const void *ptr, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event);
cl_int clEnqueueCopyBuffer(cl_command_queue command_queue, cl_mem src_buffer, cl_mem dst_buffer, size_t src_offset, size_t dst_offset, size_t size, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event);
cl_int clEnqueueFillBuffer(cl_command_queue command_queue, cl_mem buf, cl_uint pattern, size_t offset, size_t size, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event);
cl_int clFlush(cl_command_queue command_queue);
cl_int clFinish(cl_command_queue command_queue);
cl_int clWaitForEvents(cl_uint num_events, const cl_event *event_list);
cl_int clGetEventInfo(cl_event event, cl_uint *status);
cl_int clGetEventProfilingInfo(cl_event event, cl_uint param_name, uint64_t *value);
cl_int clReleaseEvent(cl_event event);
|}

let simcl_spec =
  {|
api("simcl");
#include "cl_sim.h"

type(cl_int) { success(CL_SUCCESS); }

cl_int clGetPlatformIDs(cl_uint num_entries, cl_platform_id *platforms, cl_uint *num_platforms) {
  sync;
  parameter(platforms) { out; buffer(num_entries, 8); }
  parameter(num_platforms) { out; element { } }
  record(no_record);
}

cl_int clGetPlatformInfo(cl_platform_id platform, cl_uint param_name, size_t value_size, char *param_value) {
  sync;
  parameter(param_value) { out; buffer(value_size); }
  record(no_record);
}

cl_int clGetDeviceIDs(cl_platform_id platform, cl_uint device_type, cl_uint num_entries, cl_device_id *devices, cl_uint *num_devices) {
  sync;
  parameter(devices) { out; buffer(num_entries, 8); }
  parameter(num_devices) { out; element { } }
  record(no_record);
}

cl_int clGetDeviceInfo(cl_device_id device, cl_uint param_name, size_t value_size, char *param_value) {
  sync;
  parameter(param_value) { out; buffer(value_size); }
  record(no_record);
}

cl_context clCreateContext(const cl_device_id *devices, cl_uint num_devices, cl_int *errcode_ret) {
  sync;
  parameter(devices) { in; buffer(num_devices, 8); }
  parameter(errcode_ret) { out; element { } }
  record(object_alloc);
}

cl_int clRetainContext(cl_context context) {
  async;
  record(object_modify);
}

cl_int clReleaseContext(cl_context context) {
  async;
  parameter(context) { deallocates; }
  record(object_dealloc);
}

cl_int clGetContextInfo(cl_context context, cl_uint *refcount) {
  sync;
  parameter(refcount) { out; element { } }
  record(no_record);
}

cl_command_queue clCreateCommandQueue(cl_context context, cl_device_id device, cl_uint properties, cl_int *errcode_ret) {
  sync;
  parameter(errcode_ret) { out; element { } }
  record(object_alloc);
}

cl_int clRetainCommandQueue(cl_command_queue command_queue) {
  async;
  record(object_modify);
}

cl_int clReleaseCommandQueue(cl_command_queue command_queue) {
  async;
  parameter(command_queue) { deallocates; }
  record(object_dealloc);
}

cl_int clGetCommandQueueInfo(cl_command_queue command_queue, cl_context *context) {
  sync;
  parameter(context) { out; element { } }
  record(no_record);
}

cl_mem clCreateBuffer(cl_context context, cl_uint flags, size_t size, cl_int *errcode_ret) {
  sync;
  parameter(errcode_ret) { out; element { } }
  resource(device_memory, size);
  record(object_alloc);
}

cl_int clRetainMemObject(cl_mem buf) {
  async;
  record(object_modify);
}

cl_int clReleaseMemObject(cl_mem buf) {
  async;
  parameter(buf) { deallocates; }
  record(object_dealloc);
}

cl_int clGetMemObjectInfo(cl_mem buf, size_t *size) {
  sync;
  parameter(size) { out; element { } }
  record(no_record);
}

cl_program clCreateProgramWithSource(cl_context context, const char *source, size_t source_size, cl_int *errcode_ret) {
  sync;
  parameter(source) { in; buffer(source_size); }
  parameter(errcode_ret) { out; element { } }
  record(object_alloc);
}

cl_int clBuildProgram(cl_program program, const char *options, size_t options_size) {
  sync;
  parameter(options) { in; buffer(options_size); }
  record(object_modify);
}

cl_int clGetProgramBuildInfo(cl_program program, size_t value_size, char *param_value) {
  sync;
  parameter(param_value) { out; buffer(value_size); }
  record(no_record);
}

cl_int clRetainProgram(cl_program program) {
  async;
  record(object_modify);
}

cl_int clReleaseProgram(cl_program program) {
  async;
  parameter(program) { deallocates; }
  record(object_dealloc);
}

cl_kernel clCreateKernel(cl_program program, const char *kernel_name, size_t kernel_name_size, cl_int *errcode_ret) {
  sync;
  parameter(kernel_name) { in; buffer(kernel_name_size); }
  parameter(errcode_ret) { out; element { } }
  record(object_alloc);
}

cl_int clRetainKernel(cl_kernel kernel) {
  async;
  record(object_modify);
}

cl_int clReleaseKernel(cl_kernel kernel) {
  async;
  parameter(kernel) { deallocates; }
  record(object_dealloc);
}

cl_int clSetKernelArg(cl_kernel kernel, cl_uint arg_index, size_t arg_size, const void *arg_value) {
  async;
  parameter(arg_value) { in; buffer(arg_size); }
  record(object_modify);
}

cl_int clGetKernelInfo(cl_kernel kernel, size_t value_size, char *param_value) {
  sync;
  parameter(param_value) { out; buffer(value_size); }
  record(no_record);
}

cl_int clGetKernelWorkGroupInfo(cl_kernel kernel, cl_device_id device, size_t *wg_size) {
  sync;
  parameter(wg_size) { out; element { } }
  record(no_record);
}

cl_int clEnqueueNDRangeKernel(cl_command_queue command_queue, cl_kernel kernel, size_t global_work_size, size_t local_work_size, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event) {
  async;
  parameter(event_wait_list) { in; buffer(num_events_in_wait_list, 8); }
  parameter(event) { out; element { allocates; } }
  resource(device_time, global_work_size);
  record(no_record);
}

cl_int clEnqueueTask(cl_command_queue command_queue, cl_kernel kernel, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event) {
  async;
  parameter(event_wait_list) { in; buffer(num_events_in_wait_list, 8); }
  parameter(event) { out; element { allocates; } }
  resource(device_time, 1);
  record(no_record);
}

cl_int clEnqueueReadBuffer(cl_command_queue command_queue, cl_mem buf, cl_bool blocking_read, size_t offset, size_t size, void *ptr, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event) {
  if (blocking_read == CL_TRUE) sync; else async;
  parameter(ptr) { out; buffer(size); }
  parameter(event_wait_list) { in; buffer(num_events_in_wait_list, 8); }
  parameter(event) { out; element { allocates; } }
  resource(bus_bytes, size);
  record(no_record);
}

cl_int clEnqueueWriteBuffer(cl_command_queue command_queue, cl_mem buf, cl_bool blocking_write, size_t offset, size_t size, const void *ptr, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event) {
  async;
  parameter(buf) { target; }
  parameter(ptr) { in; buffer(size); }
  parameter(event_wait_list) { in; buffer(num_events_in_wait_list, 8); }
  parameter(event) { out; element { allocates; } }
  resource(bus_bytes, size);
  record(object_modify);
}

cl_int clEnqueueCopyBuffer(cl_command_queue command_queue, cl_mem src_buffer, cl_mem dst_buffer, size_t src_offset, size_t dst_offset, size_t size, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event) {
  async;
  parameter(dst_buffer) { target; }
  parameter(event_wait_list) { in; buffer(num_events_in_wait_list, 8); }
  parameter(event) { out; element { allocates; } }
  resource(device_time, size);
  record(object_modify);
}

cl_int clEnqueueFillBuffer(cl_command_queue command_queue, cl_mem buf, cl_uint pattern, size_t offset, size_t size, cl_uint num_events_in_wait_list, const cl_event *event_wait_list, cl_event *event) {
  async;
  parameter(buf) { target; }
  parameter(event_wait_list) { in; buffer(num_events_in_wait_list, 8); }
  parameter(event) { out; element { allocates; } }
  resource(device_time, size);
  record(object_modify);
}

cl_int clFlush(cl_command_queue command_queue) {
  async;
  record(no_record);
}

cl_int clFinish(cl_command_queue command_queue) {
  sync;
  record(no_record);
}

cl_int clWaitForEvents(cl_uint num_events, const cl_event *event_list) {
  sync;
  parameter(event_list) { in; buffer(num_events, 8); }
  record(no_record);
}

cl_int clGetEventInfo(cl_event event, cl_uint *status) {
  sync;
  parameter(status) { out; element { } }
  record(no_record);
}

cl_int clGetEventProfilingInfo(cl_event event, cl_uint param_name, uint64_t *value) {
  sync;
  parameter(value) { out; element { } }
  record(no_record);
}

cl_int clReleaseEvent(cl_event event) {
  async;
  parameter(event) { deallocates; }
  record(object_dealloc);
}
|}

let mvnc_header =
  {|
/* MVNC: the public API of the simulated Movidius NCSDK silo. */
#define MVNC_OK 0

typedef int mvncStatus;
typedef struct _mvncDevice *mvncDeviceHandle;
typedef struct _mvncGraph *mvncGraphHandle;

mvncStatus mvncGetDeviceName(int index, char *name, unsigned int name_size);
mvncStatus mvncOpenDevice(const char *name, unsigned int name_size, mvncDeviceHandle *device);
mvncStatus mvncCloseDevice(mvncDeviceHandle device);
mvncStatus mvncAllocateGraph(mvncDeviceHandle device, mvncGraphHandle *graph, const void *graph_data, unsigned int graph_data_size);
mvncStatus mvncDeallocateGraph(mvncGraphHandle graph);
mvncStatus mvncLoadTensor(mvncGraphHandle graph, const void *tensor, unsigned int tensor_size);
mvncStatus mvncGetResult(mvncGraphHandle graph, void *result, unsigned int *result_size);
mvncStatus mvncGetGraphOption(mvncGraphHandle graph, int option, int *value);
mvncStatus mvncSetGraphOption(mvncGraphHandle graph, int option, int value);
mvncStatus mvncGetDeviceOption(mvncDeviceHandle device, int option, int *value);
|}

let mvnc_spec =
  {|
api("mvnc");
#include "mvnc_sim.h"

type(mvncStatus) { success(MVNC_OK); }

mvncStatus mvncGetDeviceName(int index, char *name, unsigned int name_size) {
  sync;
  parameter(name) { out; buffer(name_size); }
  record(no_record);
}

mvncStatus mvncOpenDevice(const char *name, unsigned int name_size, mvncDeviceHandle *device) {
  sync;
  parameter(name) { in; buffer(name_size); }
  parameter(device) { out; element { allocates; } }
  record(object_alloc);
}

mvncStatus mvncCloseDevice(mvncDeviceHandle device) {
  sync;
  parameter(device) { deallocates; }
  record(object_dealloc);
}

mvncStatus mvncAllocateGraph(mvncDeviceHandle device, mvncGraphHandle *graph, const void *graph_data, unsigned int graph_data_size) {
  sync;
  parameter(graph) { out; element { allocates; } }
  parameter(graph_data) { in; buffer(graph_data_size); }
  resource(bus_bytes, graph_data_size);
  record(object_alloc);
}

mvncStatus mvncDeallocateGraph(mvncGraphHandle graph) {
  sync;
  parameter(graph) { deallocates; }
  record(object_dealloc);
}

mvncStatus mvncLoadTensor(mvncGraphHandle graph, const void *tensor, unsigned int tensor_size) {
  async;
  parameter(tensor) { in; buffer(tensor_size); }
  resource(bus_bytes, tensor_size);
  record(no_record);
}

mvncStatus mvncGetResult(mvncGraphHandle graph, void *result, unsigned int *result_size) {
  sync;
  parameter(result) { out; buffer(result_size); }
  parameter(result_size) { in_out; element { } }
  record(no_record);
}

mvncStatus mvncGetGraphOption(mvncGraphHandle graph, int option, int *value) {
  sync;
  parameter(value) { out; element { } }
  record(no_record);
}

mvncStatus mvncSetGraphOption(mvncGraphHandle graph, int option, int value) {
  async;
  record(object_modify);
}

mvncStatus mvncGetDeviceOption(mvncDeviceHandle device, int option, int *value) {
  sync;
  parameter(value) { out; element { } }
  record(no_record);
}
|}


let qat_header =
  {|
/* SimQA: the public API of the simulated QuickAssist compression silo. */
#define QA_STATUS_SUCCESS 0
#define QA_DIR_COMPRESS 0
#define QA_DIR_DECOMPRESS 1

typedef int qaStatus;
typedef struct _qaInstance *qaInstanceHandle;
typedef struct _qaSession *qaSessionHandle;
typedef struct _qaCallback *qaCallbackFn;
typedef struct { int ops; int bytes_in; int bytes_out; } qaStatsEx;

qaStatus qaGetNumInstances(int *num_instances);
qaStatus qaStartInstance(int index, qaInstanceHandle *instance);
qaStatus qaStopInstance(qaInstanceHandle instance);
qaStatus qaCreateSession(qaInstanceHandle instance, int direction, int level, qaSessionHandle *session);
qaStatus qaRemoveSession(qaSessionHandle session);
qaStatus qaCompress(qaSessionHandle session, const void *src, unsigned int src_size, void *dst, unsigned int *dst_size);
qaStatus qaDecompress(qaSessionHandle session, const void *src, unsigned int src_size, void *dst, unsigned int *dst_size);
qaStatus qaSubmitCompress(qaSessionHandle session, const void *src, unsigned int src_size, qaCallbackFn callback, int tag);
qaStatus qaGetStats(qaInstanceHandle instance, int *ops, int *bytes);
qaStatus qaGetStatsEx(qaInstanceHandle instance, qaStatsEx *stats);
|}

let qat_spec =
  {|
api("qat");
#include "qa_sim.h"

type(qaStatus) { success(QA_STATUS_SUCCESS); }

qaStatus qaGetNumInstances(int *num_instances) {
  sync;
  parameter(num_instances) { out; element { } }
  record(no_record);
}

qaStatus qaStartInstance(int index, qaInstanceHandle *instance) {
  sync;
  parameter(instance) { out; element { allocates; } }
  record(object_alloc);
}

qaStatus qaStopInstance(qaInstanceHandle instance) {
  sync;
  parameter(instance) { deallocates; }
  record(object_dealloc);
}

qaStatus qaCreateSession(qaInstanceHandle instance, int direction, int level, qaSessionHandle *session) {
  sync;
  parameter(session) { out; element { allocates; } }
  record(object_alloc);
}

qaStatus qaRemoveSession(qaSessionHandle session) {
  sync;
  parameter(session) { deallocates; }
  record(object_dealloc);
}

qaStatus qaCompress(qaSessionHandle session, const void *src, unsigned int src_size, void *dst, unsigned int *dst_size) {
  sync;
  parameter(src) { in; buffer(src_size); }
  parameter(dst) { out; buffer(dst_size); }
  parameter(dst_size) { in_out; element { } }
  resource(bus_bytes, src_size);
  record(no_record);
}

qaStatus qaDecompress(qaSessionHandle session, const void *src, unsigned int src_size, void *dst, unsigned int *dst_size) {
  sync;
  parameter(src) { in; buffer(src_size); }
  parameter(dst) { out; buffer(dst_size); }
  parameter(dst_size) { in_out; element { } }
  resource(bus_bytes, src_size);
  record(no_record);
}

qaStatus qaSubmitCompress(qaSessionHandle session, const void *src, unsigned int src_size, qaCallbackFn callback, int tag) {
  async;
  parameter(src) { in; buffer(src_size); }
  parameter(callback) { callback; }
  resource(bus_bytes, src_size);
  record(no_record);
}

qaStatus qaGetStats(qaInstanceHandle instance, int *ops, int *bytes) {
  sync;
  parameter(ops) { out; element { } }
  parameter(bytes) { out; element { } }
  record(no_record);
}

qaStatus qaGetStatsEx(qaInstanceHandle instance, qaStatsEx *stats) {
  sync;
  record(no_record);
}
|}

let simst_header = Simst_files.header
let simst_spec = Simst_files.spec

let resolve_builtin_include = function
  | "cl_sim.h" -> Some simcl_header
  | "mvnc_sim.h" -> Some mvnc_header
  | "qa_sim.h" -> Some qat_header
  | "simst.h" -> Some simst_header
  | _ -> None

(* Parse one of the embedded refined specs; these must always succeed. *)
let load_simcl () =
  match Parser.parse ~resolve_include:resolve_builtin_include simcl_spec with
  | Ok spec -> spec
  | Error e ->
      failwith
        (Printf.sprintf "embedded simcl spec is invalid (line %d): %s"
           e.Parser.line e.Parser.message)

let load_mvnc () =
  match Parser.parse ~resolve_include:resolve_builtin_include mvnc_spec with
  | Ok spec -> spec
  | Error e ->
      failwith
        (Printf.sprintf "embedded mvnc spec is invalid (line %d): %s"
           e.Parser.line e.Parser.message)

let load_qat () =
  match Parser.parse ~resolve_include:resolve_builtin_include qat_spec with
  | Ok spec -> spec
  | Error e ->
      failwith
        (Printf.sprintf "embedded qat spec is invalid (line %d): %s"
           e.Parser.line e.Parser.message)

let load_simst () =
  match Parser.parse ~resolve_include:resolve_builtin_include simst_spec with
  | Ok spec -> spec
  | Error e ->
      failwith
        (Printf.sprintf "embedded simst spec is invalid (line %d): %s"
           e.Parser.line e.Parser.message)
