(* Sensitivity self-test: inject a known host delay and allocation into
   every guest API call (through the benchmark's own wrapper, the entry
   of the stub layer) and check that the benchmark notices.

     selftest.exe --calls-bound B --alloc-bound B

   Passes when, on the rodinia workload, the comparison with the
   benchmark's own bounds flags calls_per_s and alloc_kb_per_call as
   worse, the matching per-layer row (span.api.self_ns_per_call) grows
   by at least half the injected delay, and the virtual-time result
   (sim_overhead_rel) does not move. *)

open Bench

let delay_s = 20e-6
let extra_bytes = 16 * 1024

let inject () =
  let until = Meter.wall () +. delay_s in
  while Meter.wall () < until do
    ()
  done;
  ignore (Sys.opaque_identity (Bytes.create extra_bytes))

let metric name l = (List.find (fun x -> x.Meter.m_name = name) l).Meter.m_value

let () =
  let calls_bound = ref 0.1 and alloc_bound = ref 0.1 in
  let rec parse = function
    | "--calls-bound" :: v :: rest ->
        calls_bound := float_of_string v;
        parse rest
    | "--alloc-bound" :: v :: rest ->
        alloc_bound := float_of_string v;
        parse rest
    | [] -> ()
    | _ ->
        prerr_endline "usage: selftest.exe --calls-bound B --alloc-bound B";
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let order = Work.shuffle 1 Ava_workloads.Rodinia.all in
  let measure () =
    let reps = Meter.repeat ~seconds:1.5 ~min_reps:3 (rodinia_rep order) in
    Meter.reset_spans ();
    Meter.tracing := true;
    let traced = rodinia_rep order 0 in
    Meter.tracing := false;
    let api = span_metrics ~reps:1 ~calls:traced.calls in
    (end_to_end reps, List.assoc "span.api.self_ns_per_call" api)
  in
  let base, base_api = measure () in
  Meter.inject := inject;
  let slow, slow_api = measure () in
  Meter.inject := ignore;
  let worse_lower name bound = metric name slow < metric name base *. (1.0 -. bound) in
  let worse_higher name bound = metric name slow > metric name base *. (1.0 +. bound) in
  let checks =
    [
      ("calls_per_s flagged worse", worse_lower "calls_per_s" !calls_bound);
      ("alloc_kb_per_call flagged worse", worse_higher "alloc_kb_per_call" !alloc_bound);
      ( "span.api.self_ns_per_call grew by >= half the delay",
        slow_api -. base_api >= delay_s *. 1e9 /. 2.0 );
      ("sim_overhead_rel unchanged", metric "sim_overhead_rel" slow = metric "sim_overhead_rel" base);
    ]
  in
  List.iter
    (fun name ->
      Printf.printf "%-20s base %.6g  injected %.6g\n" name (metric name base)
        (metric name slow))
    [ "calls_per_s"; "alloc_kb_per_call"; "sim_overhead_rel" ];
  Printf.printf "%-20s base %.6g  injected %.6g\n" "span.api.self_ns_per_call"
    base_api slow_api;
  List.iter (fun (name, ok) -> Printf.printf "%s: %s\n" (if ok then "PASS" else "FAIL") name) checks;
  exit (if List.for_all snd checks then 0 else 1)
