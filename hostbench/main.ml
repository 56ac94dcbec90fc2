(* Host-cost benchmark of the AvA stack.

     main.exe --workload rodinia|fleet|dataplane --seed N --seconds S
              --trace 0|1 [--out DIR]

   With --trace 0 it measures the end-to-end metrics for S seconds; with
   --trace 1 it runs the separate traced run that gives the per-layer
   metrics (spans written to DIR).  The last line of standard output is
   the JSON result.  Why each workload exists and which layer moves
   which metric is in README.md beside this file. *)

open Bench

let usage () =
  prerr_endline
    "usage: main.exe --workload rodinia|fleet|dataplane --seed N --seconds S \
     --trace 0|1 [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := v = "1";
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match !workload with
    | "rodinia" -> rodinia
    | "fleet" -> fleet
    | "dataplane" -> dataplane
    | _ -> usage ()
  in
  let t0 = Meter.wall () in
  let reps, layer = run ~seed:!seed ~seconds:!seconds ~trace:!trace in
  let correct =
    deterministic reps
    && List.for_all (fun r -> r.complete && r.failed = 0) reps
  in
  let attempted = sum (fun r -> r.ops) reps and failed = sum (fun r -> r.failed) reps in
  Printf.printf "# %s seed=%d reps=%d wall=%.1fs remoted cpu/wall per rep: %s\n"
    !workload !seed (List.length reps) (Meter.wall () -. t0)
    (String.concat " "
       (List.map (fun r -> Printf.sprintf "%.3f/%.3f" r.cpu r.wall) reps));
  (* Every repetition has the same signature (checked above); two runs
     on one seed must print the same digest. *)
  let r0 = List.hd reps in
  Printf.printf "# virtual-time signature %s\n"
    (Digest.to_hex (Digest.string (Marshal.to_string (r0.signature, r0.rel) [])));
  let metrics =
    if not !trace then end_to_end reps
    else begin
      let layer = layer @ rep_metrics reps in
      if !out <> "" then
        Meter.write_spans
          (Filename.concat !out (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
      List.map
        (fun (name, unit) ->
          m name unit (Option.value (List.assoc_opt name layer) ~default:0.0))
        per_layer_units
    end
  in
  List.iter
    (fun x -> Printf.printf "# %-32s %.6g %s\n" x.Meter.m_name x.m_value x.m_unit)
    metrics;
  print_endline (Meter.result_line ~correct ~attempted ~failed metrics)
