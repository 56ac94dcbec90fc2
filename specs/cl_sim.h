
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
