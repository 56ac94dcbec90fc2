(* SimQA public types: a minimal Intel QuickAssist (QAT) data-compression
   flavor — the API the paper names as AvA's next target (§5). *)

type instance_handle = int
type session_handle = int

type status =
  | Qa_invalid_param
  | Qa_resource
  | Qa_fail
  | Qa_unsupported

let status_to_string = function
  | Qa_invalid_param -> "QA_STATUS_INVALID_PARAM"
  | Qa_resource -> "QA_STATUS_RESOURCE"
  | Qa_fail -> "QA_STATUS_FAIL"
  | Qa_unsupported -> "QA_STATUS_UNSUPPORTED"

let status_to_code = function
  | Qa_invalid_param -> -1
  | Qa_resource -> -2
  | Qa_fail -> -3
  | Qa_unsupported -> -4

let status_of_code = function
  | -1 -> Qa_invalid_param
  | -2 -> Qa_resource
  | -4 -> Qa_unsupported
  | _ -> Qa_fail

type 'a result = ('a, status) Stdlib.result

type direction = Dir_compress | Dir_decompress

(** The extended statistics structure of [qaGetStatsEx] — marshalled
    field-wise through the remoting stack (spec-language structs). *)
type stats_ex = { se_ops : int; se_bytes_in : int; se_bytes_out : int }
