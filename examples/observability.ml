(* Per-call latency attribution end to end: arm an Obs registry on the
   stack, run a real Rodinia benchmark on one guest, then read the
   attribution out all four ways — the admin report's latency lines,
   the per-phase breakdown, the Prometheus exposition and a
   Perfetto-loadable Chrome trace.

   The registry is passive: the armed run's virtual end time is
   asserted bit-identical to a disarmed run of the same program. *)

module Obs = Ava_obs.Obs
module Hist = Ava_obs.Hist
module Export = Ava_obs.Export

open Ava_sim
open Ava_core
open Ava_workloads

let () =
  let b = Option.get (Rodinia.find "gaussian") in

  (* Disarmed baseline: same program, no registry. *)
  let disarmed =
    let e = Engine.create () in
    let host = Host.create_cl_host e in
    let guest = Host.add_cl_vm host ~name:"guest" in
    Engine.run_process e (fun () ->
        b.Rodinia.run guest.Host.g_api;
        Engine.now e)
  in

  (* Armed run: every forwarded call carries a span. *)
  let obs = Obs.create () in
  let e = Engine.create () in
  let host = Host.create_cl_host ~obs e in
  let guest = Host.add_cl_vm host ~name:"guest" in
  let armed =
    Engine.run_process e (fun () ->
        b.Rodinia.run guest.Host.g_api;
        Engine.now e)
  in

  Fmt.pr "gaussian, disarmed: %a@." Time.pp disarmed;
  Fmt.pr "gaussian, armed:    %a@." Time.pp armed;
  assert (disarmed = armed);
  Fmt.pr "attribution is passive: end times bit-identical@.@.";

  (* 1. The admin report grows latency lines when obs is armed. *)
  Fmt.pr "%a@." (Report.pp host) [ guest ];

  (* 2. Per-phase breakdown: where a forwarded call's time went. *)
  let total = Obs.total_summary obs in
  Fmt.pr "attributed %d calls, %.1f ms total@." total.Hist.h_count
    (total.Hist.h_sum_ns /. 1e6);
  List.iter
    (fun (name, s) ->
      Fmt.pr "  %-16s share %5.1f%%  p50 %8.0fns  p95 %8.0fns@." name
        (100.0 *. s.Hist.h_sum_ns /. total.Hist.h_sum_ns)
        s.Hist.h_p50_ns s.Hist.h_p95_ns)
    (Obs.phase_summaries obs);

  (* 3. Prometheus text exposition (first family only, for brevity). *)
  let exposition = Export.prometheus obs in
  Fmt.pr "@.prometheus exposition: %d bytes; ava_call_total_ns family:@."
    (String.length exposition);
  String.split_on_char '\n' exposition
  |> List.filter (fun l ->
         String.length l >= 17 && String.sub l 0 17 = "ava_call_total_ns")
  |> List.iter (fun l -> Fmt.pr "  %s@." l);

  (* 4. Chrome trace for chrome://tracing / Perfetto. *)
  let path = "observability_trace.json" in
  let oc = open_out path in
  output_string oc (Export.chrome_trace_string obs);
  close_out oc;
  Fmt.pr "@.wrote %s (%d retained spans) — load it in Perfetto@." path
    (List.length (Obs.spans obs))
