(* VM migration for SimCL guests (§4.3).

   Procedure (the guest quiesces first, e.g. with clFinish):
   1. suspend the VM's API-server worker;
   2. drain the silo's queues, then synthesize reads of all live device
      buffers into host memory;
   3. stand up a fresh silo state on the destination device and replay
      the recorded calls (global config, live allocations and their
      modifications), re-binding each object to its original virtual id
      so guest-held handles stay valid;
   4. restore buffer contents;
   5. resume the worker.

   The guest library never notices: its handles are virtual ids whose
   host bindings were rebuilt underneath it. *)

module Server = Ava_remoting.Server
module Migrate = Ava_remoting.Migrate

open Ava_sim

type report = {
  pause_ns : Time.t;  (** wall (virtual) time the VM was suspended *)
  replayed_calls : int;
  buffers_restored : int;
  bytes_copied : int;  (** snapshot + restore volume *)
  log_recorded : int;  (** calls ever recorded for this VM *)
  log_pruned : int;  (** entries dropped by object tracking *)
}

let pp_report ppf r =
  Fmt.pf ppf
    "pause=%a replayed=%d buffers=%d copied=%dB recorded=%d pruned=%d"
    Time.pp r.pause_ns r.replayed_calls r.buffers_restored r.bytes_copied
    r.log_recorded r.log_pruned

(* Must run inside a simulation process. *)
let migrate (host : Host.cl_host) ~vm_id ~dest_kd =
  let engine = host.Host.engine in
  let server = host.Host.server in
  let recorder =
    match Host.recorder host ~vm_id with
    | Some r -> r
    | None -> invalid_arg "Migration.migrate: unknown vm"
  in
  let ctx =
    match Server.vm_ctx server ~vm_id with
    | Some c -> c
    | None -> invalid_arg "Migration.migrate: vm not attached to server"
  in
  let started = Engine.now engine in
  Server.pause_vm server ~vm_id;
  (* Steps 2-4 are the silo kit's transfer with [src == dst]: the swap to
     a fresh silo on the destination device happens between snapshot and
     replay, while recording is suspended. *)
  let moved =
    Silo.transfer Cl_handlers.live ~recorder ~vm_id ~src:server ~dst:server
      ~suspend:(fun () ->
        Hashtbl.remove host.Host.recorders vm_id;
        ignore
          (Server.replace_state server ~vm_id
             (Cl_handlers.make_state dest_kd ~vm_id));
        Server.Ctx.clear ctx)
      ~resume:(fun () -> Hashtbl.replace host.Host.recorders vm_id recorder)
  in
  Server.resume_vm server ~vm_id;
  {
    pause_ns = Engine.now engine - started;
    replayed_calls = moved.Silo.replayed;
    buffers_restored = moved.Silo.restored;
    bytes_copied = moved.Silo.bytes;
    log_recorded = Migrate.recorded_count recorder;
    log_pruned = Migrate.pruned_count recorder;
  }
