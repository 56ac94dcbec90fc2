(* Shared wire-layout helpers for the generated guest stubs and server
   handlers.

   Each API function has a fixed argument layout (one wire value per C
   parameter, in declaration order) so the router can verify argument
   counts against the plan.  Out parameters travel as [Unit] placeholders
   in the request and come back in the reply's out list. *)

module Wire = Ava_remoting.Wire

let i n = Wire.int n
let h x = Wire.Handle (Int64.of_int x)
let u = Wire.Unit
let b bytes = Wire.Blob bytes
let s str = Wire.Str str
let l handles = Wire.List (List.map h handles)

(* Alias the server's canonical exception: handlers raise it and
   {!Ava_remoting.Server.classify_exn} turns it into a counted
   rejection; guest parses raise it and {!Silo.Guest} turns it into the
   silo's failure error. *)
exception Bad_args = Ava_remoting.Server.Bad_args

(* Range-checked: an [I64]/[Handle] outside the native [int] range is a
   marshalling error, never a silent wrap. *)
let to_i v = match Wire.to_int v with Some n -> n | None -> raise Bad_args

let to_h = to_i

let to_b = function Wire.Blob x -> x | _ -> raise Bad_args

let to_l = function
  | Wire.List vs -> List.map to_i vs
  | _ -> raise Bad_args

(* Kernel-argument payload for clSetKernelArg: tag byte + 8-byte value. *)
let encode_kernel_arg (arg : Ava_simcl.Types.kernel_arg) =
  let payload = Bytes.create 9 in
  let tag, v =
    match arg with
    | Ava_simcl.Types.Arg_mem m -> (0, Int64.of_int m)
    | Ava_simcl.Types.Arg_int n -> (1, Int64.of_int n)
    | Ava_simcl.Types.Arg_float f -> (2, Int64.bits_of_float f)
    | Ava_simcl.Types.Arg_local n -> (3, Int64.of_int n)
  in
  Bytes.set payload 0 (Char.chr tag);
  Bytes.set_int64_le payload 1 v;
  payload

(* Decode; mem handles are returned unresolved (the server resolves the
   guest id through its handle map). *)
let decode_kernel_arg payload =
  if Bytes.length payload <> 9 then raise Bad_args;
  let v = Bytes.get_int64_le payload 1 in
  match Char.code (Bytes.get payload 0) with
  | 0 -> `Mem (Int64.to_int v)
  | 1 -> `Int (Int64.to_int v)
  | 2 -> `Float (Int64.float_of_bits v)
  | 3 -> `Local (Int64.to_int v)
  | _ -> raise Bad_args

(* Device/platform info payloads: tagged string or int. *)
let encode_info = function
  | Ava_simcl.Types.Info_string str ->
      let n = String.length str in
      let payload = Bytes.create (1 + n) in
      Bytes.set payload 0 '\000';
      Bytes.blit_string str 0 payload 1 n;
      payload
  | Ava_simcl.Types.Info_int v ->
      let payload = Bytes.create 9 in
      Bytes.set payload 0 '\001';
      Bytes.set_int64_le payload 1 (Int64.of_int v);
      payload

let decode_info payload =
  if Bytes.length payload < 1 then raise Bad_args;
  match Bytes.get payload 0 with
  | '\000' ->
      Ava_simcl.Types.Info_string
        (Bytes.sub_string payload 1 (Bytes.length payload - 1))
  | '\001' ->
      if Bytes.length payload <> 9 then raise Bad_args;
      Ava_simcl.Types.Info_int (Int64.to_int (Bytes.get_int64_le payload 1))
  | _ -> raise Bad_args

(* Enum <-> int mappings shared by stub and server. *)

let platform_info_to_int = function
  | Ava_simcl.Types.Platform_name -> 0
  | Platform_vendor -> 1
  | Platform_version -> 2

let platform_info_of_int = function
  | 0 -> Ava_simcl.Types.Platform_name
  | 1 -> Platform_vendor
  | _ -> Platform_version

let device_info_to_int = function
  | Ava_simcl.Types.Device_name -> 0
  | Device_global_mem_size -> 1
  | Device_max_compute_units -> 2
  | Device_max_work_group_size -> 3

let device_info_of_int = function
  | 0 -> Ava_simcl.Types.Device_name
  | 1 -> Device_global_mem_size
  | 2 -> Device_max_compute_units
  | _ -> Device_max_work_group_size

let device_type_to_int = function
  | Ava_simcl.Types.Device_gpu -> 4
  | Device_accelerator -> 8
  | Device_all -> -1

let device_type_of_int = function
  | 4 -> Ava_simcl.Types.Device_gpu
  | 8 -> Device_accelerator
  | _ -> Device_all

let event_status_to_int = function
  | Ava_simcl.Types.Queued -> 3
  | Submitted -> 2
  | Running -> 1
  | Complete -> 0

let event_status_of_int = function
  | 3 -> Ava_simcl.Types.Queued
  | 2 -> Submitted
  | 1 -> Running
  | _ -> Complete

let profiling_info_to_int = function
  | Ava_simcl.Types.Profiling_queued -> 0
  | Profiling_submit -> 1
  | Profiling_start -> 2
  | Profiling_end -> 3

let profiling_info_of_int = function
  | 0 -> Ava_simcl.Types.Profiling_queued
  | 1 -> Profiling_submit
  | 2 -> Profiling_start
  | _ -> Profiling_end

let graph_option_to_int = function
  | Ava_simnc.Types.Graph_time_taken_us -> 0
  | Graph_executors -> 1

let graph_option_of_int = function
  | 0 -> Ava_simnc.Types.Graph_time_taken_us
  | _ -> Graph_executors

let device_option_to_int = function
  | Ava_simnc.Types.Device_thermal_throttle -> 0
  | Device_memory_used -> 1

let device_option_of_int = function
  | 0 -> Ava_simnc.Types.Device_thermal_throttle
  | _ -> Device_memory_used
