
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
