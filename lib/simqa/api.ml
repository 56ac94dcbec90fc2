(* The SimQA public API: 8 entry points in the style of QuickAssist's
   data-compression service — the "new accelerator API" AvA's §5 plans
   to auto-virtualize next.  This reproduction does exactly that: the
   refined spec in {!Ava_spec.Specs} drives a generated remoting stack
   identical in structure to SimCL's. *)

open Types

module type S = sig
  val qaGetNumInstances : unit -> int result
  val qaStartInstance : index:int -> instance_handle result
  val qaStopInstance : instance_handle -> unit result

  val qaCreateSession :
    instance_handle -> direction -> level:int -> session_handle result

  val qaRemoveSession : session_handle -> unit result

  val qaCompress : session_handle -> src:bytes -> bytes result
  (** Offload one compression; returns the compressed buffer. *)

  val qaDecompress : session_handle -> src:bytes -> bytes result

  val qaSubmitCompress :
    session_handle ->
    src:bytes ->
    tag:int ->
    callback:(tag:int -> bytes -> unit) ->
    unit result
  (** QAT's native usage model: submit asynchronously; the completion
      callback fires with the caller's tag and the compressed data.
      Under AvA the callback is a guest closure invoked by a
      server-to-guest upcall. *)

  val qaGetStats : instance_handle -> (int * int) result
  (** (operations completed, input bytes processed) *)

  val qaGetStatsEx : instance_handle -> stats_ex result
  (** Extended statistics, returned as a by-value struct (exercises the
      spec language's structure support). *)
end
