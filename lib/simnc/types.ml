(* MVNC (Movidius NCSDK) public types. *)

type device_handle = int
type graph_handle = int

type status =
  | Busy
  | Invalid_parameters
  | Device_not_found
  | Out_of_memory
  | Unsupported_graph_file
  | No_data
  | Gone
  | General_error

let status_to_string = function
  | Busy -> "MVNC_BUSY"
  | Invalid_parameters -> "MVNC_INVALID_PARAMETERS"
  | Device_not_found -> "MVNC_DEVICE_NOT_FOUND"
  | Out_of_memory -> "MVNC_OUT_OF_MEMORY"
  | Unsupported_graph_file -> "MVNC_UNSUPPORTED_GRAPH_FILE"
  | No_data -> "MVNC_NO_DATA"
  | Gone -> "MVNC_GONE"
  | General_error -> "MVNC_ERROR"

let status_to_code = function
  | Busy -> -1
  | Invalid_parameters -> -2
  | Device_not_found -> -4
  | Out_of_memory -> -5
  | Unsupported_graph_file -> -10
  | No_data -> -8
  | Gone -> -9
  | General_error -> -99

let status_of_code = function
  | -1 -> Busy
  | -2 -> Invalid_parameters
  | -4 -> Device_not_found
  | -5 -> Out_of_memory
  | -10 -> Unsupported_graph_file
  | -8 -> No_data
  (* -9005/-9006 are the remoting stack's device-lost / quarantined
     statuses; both surface as MVNC_GONE at the API. *)
  | -9 | -9005 | -9006 -> Gone
  | _ -> General_error

type 'a result = ('a, status) Stdlib.result

type graph_option =
  | Graph_time_taken_us  (** duration of the last inference *)
  | Graph_executors  (** number of on-stick executors (SHAVEs) *)

type device_option = Device_thermal_throttle | Device_memory_used

