(* The zero-copy data path end to end: shared virtual addressing plus
   doorbell batching on the shm ring.  Runs a payload-heavy Rodinia
   benchmark twice — plain remoted, then with [~sva:true] and the
   default doorbell config — and shows where the wire tax went: the
   per-call transport+marshal phases collapse, payload bytes leave the
   wire as 13-byte refs, and most ring notifies disappear into the
   peer's drain/poll window.

   Both knobs default off; the disarmed run is asserted bit-identical
   to a stack that never heard of them. *)

module Obs = Ava_obs.Obs
module Hist = Ava_obs.Hist
module Stub = Ava_remoting.Stub
module Transport = Ava_transport.Transport

open Ava_sim
open Ava_core
open Ava_workloads

let wire_phases = [ "marshal"; "doorbell"; "transport" ]

let run ?sva ?doorbell b =
  let obs = Obs.create () in
  let e = Engine.create () in
  let host = Host.create_cl_host ?sva ?doorbell ~obs e in
  let guest = Host.add_cl_vm host ~name:"guest" in
  let end_ns =
    Engine.run_process e (fun () ->
        b.Rodinia.run guest.Host.g_api;
        Engine.now e)
  in
  let wire_p50 =
    List.fold_left
      (fun acc (name, s) ->
        if List.mem name wire_phases then acc +. s.Hist.h_p50_ns else acc)
      0.0
      (Obs.phase_summaries obs)
  in
  (end_ns, wire_p50, Option.get guest.Host.g_stub)

let () =
  let b = Option.get (Rodinia.find "srad") in

  let plain_ns, plain_wire, _ = run b in
  let sva_ns, sva_wire, stub =
    run ~sva:true ~doorbell:Transport.default_doorbell b
  in

  Fmt.pr "srad, plain remoted:  %a  transport+marshal p50 %7.0f ns@."
    Time.pp plain_ns plain_wire;
  Fmt.pr "srad, sva + doorbell: %a  transport+marshal p50 %7.0f ns@."
    Time.pp sva_ns sva_wire;
  Fmt.pr "wire-tax reduction: %.1f%%@.@."
    (100.0 *. (1.0 -. (sva_wire /. plain_wire)));

  Fmt.pr "stub pinned %d buffers, %d payload bytes never crossed the wire@."
    (Stub.sva_maps stub)
    (Stub.sva_saved_bytes stub);

  (* Off means off: passing the knobs disarmed must not move a tick. *)
  let off_ns, _, _ = run ~sva:false b in
  assert (off_ns = plain_ns);
  Fmt.pr "disarmed run bit-identical to the plain stack@."
