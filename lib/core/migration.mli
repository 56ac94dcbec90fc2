(** VM migration for SimCL guests (§4.3).

    Procedure (the guest quiesces first, e.g. with [clFinish]): suspend
    the VM's API-server worker; drain its queues and synthesize reads of
    all live device buffers; stand up a fresh silo state on the
    destination device and replay the recorded calls, re-binding each
    object to its original virtual id so guest-held handles stay valid;
    restore buffer contents; resume.  The guest library never
    notices. *)

open Ava_sim

type report = {
  pause_ns : Time.t;  (** virtual time the VM was suspended *)
  replayed_calls : int;
  buffers_restored : int;
  bytes_copied : int;  (** snapshot + restore volume *)
  log_recorded : int;  (** calls ever recorded for this VM *)
  log_pruned : int;  (** entries dropped by object tracking *)
}

val pp_report : Format.formatter -> report -> unit

val migrate :
  Host.cl_host -> vm_id:int -> dest_kd:Ava_simcl.Kdriver.t -> report
(** Migrate a VM's device state onto [dest_kd]'s device.  Must run
    inside a simulation process. *)
