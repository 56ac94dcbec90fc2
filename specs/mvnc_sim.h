
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
