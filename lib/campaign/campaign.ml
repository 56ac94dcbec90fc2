(* The campaign runner: budgeted random-scenario loop, same-invariant
   shrinking, corpus recording/replay, and the sabotage self-test.

   Determinism contract: the campaign seed fully determines every
   iteration's config and trace (one split stream per iteration), the
   simulator is deterministic, and corpus files carry the full config —
   so a recorded reproducer replays bit-for-bit on any machine. *)

module Pool = Ava_pool.Pool
module Json = Ava_obs.Json

open Ava_sim

type violation_report = {
  vr_iteration : int;
  vr_config : Scenario.config;
  vr_invariant : string;
  vr_detail : string;
  vr_trace : Op.trace;
  vr_original_len : int;
  vr_file : string option;
}

type summary = {
  cs_seed : int64;
  cs_budget : int;
  cs_iterations : int;
  cs_applied : int;
  cs_twin_checks : int;
  cs_violations : violation_report list;
}

(* --- corpus format -------------------------------------------------------- *)

let corpus_magic = "ava-campaign-trace v1"

let config_lines (c : Scenario.config) =
  [
    Printf.sprintf "seed %Ld" c.Scenario.sc_seed;
    Printf.sprintf "devices %d" c.Scenario.sc_devices;
    Printf.sprintf "placement %s"
      (Pool.placement_to_string c.Scenario.sc_placement);
    Printf.sprintf "sva %b" c.Scenario.sc_sva;
    Printf.sprintf "doorbell %b" c.Scenario.sc_doorbell;
    Printf.sprintf "batching %b" c.Scenario.sc_batching;
    Printf.sprintf "cache %d" c.Scenario.sc_cache;
    Printf.sprintf "faults %s" c.Scenario.sc_faults;
    Printf.sprintf "max-tenants %d" c.Scenario.sc_max_tenants;
  ]

let save ~path ~config ~invariant ~detail trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (corpus_magic ^ "\n");
      output_string oc (Printf.sprintf "invariant %s\n" invariant);
      output_string oc (Printf.sprintf "detail %s\n" detail);
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        (config_lines config);
      List.iter (fun op -> output_string oc (Op.to_line op ^ "\n")) trace;
      output_string oc "end\n")

let load path =
  let ( let* ) = Result.bind in
  let read_lines () =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let* lines =
    match read_lines () with
    | lines -> Ok lines
    | exception Sys_error m -> Error m
  in
  let lines =
    List.filter (fun l -> String.trim l <> "") (List.map String.trim lines)
  in
  match lines with
  | magic :: rest when String.equal magic corpus_magic ->
      let config = ref Scenario.default_config in
      let invariant = ref "" in
      let ops = ref [] in
      let err = ref None in
      let fail m = if !err = None then err := Some m in
      let int_field v f =
        match int_of_string_opt v with
        | Some n -> f n
        | None -> fail (Printf.sprintf "bad integer %S" v)
      in
      let bool_field v f =
        match bool_of_string_opt v with
        | Some b -> f b
        | None -> fail (Printf.sprintf "bad boolean %S" v)
      in
      List.iter
        (fun line ->
          if !err = None && not (String.equal line "end") then
            let key, value =
              match String.index_opt line ' ' with
              | Some i ->
                  ( String.sub line 0 i,
                    String.sub line (i + 1) (String.length line - i - 1) )
              | None -> (line, "")
            in
            let c = !config in
            match key with
            | "invariant" -> invariant := value
            | "detail" -> ()
            | "seed" -> (
                match Int64.of_string_opt value with
                | Some s -> config := { c with Scenario.sc_seed = s }
                | None -> fail (Printf.sprintf "bad seed %S" value))
            | "devices" ->
                int_field value (fun n ->
                    config := { c with Scenario.sc_devices = n })
            | "placement" -> (
                match Pool.placement_of_string value with
                | Some p -> config := { c with Scenario.sc_placement = p }
                | None -> fail (Printf.sprintf "bad placement %S" value))
            | "sva" ->
                bool_field value (fun b ->
                    config := { c with Scenario.sc_sva = b })
            | "doorbell" ->
                bool_field value (fun b ->
                    config := { c with Scenario.sc_doorbell = b })
            | "batching" ->
                bool_field value (fun b ->
                    config := { c with Scenario.sc_batching = b })
            | "cache" ->
                int_field value (fun n ->
                    config := { c with Scenario.sc_cache = n })
            | "faults" -> config := { c with Scenario.sc_faults = value }
            | "max-tenants" ->
                int_field value (fun n ->
                    config := { c with Scenario.sc_max_tenants = n })
            | "op" -> (
                match Op.of_line line with
                | Ok op -> ops := op :: !ops
                | Error m -> fail m)
            | _ -> fail (Printf.sprintf "unknown corpus key %S" key))
        rest;
      (match !err with
      | Some m -> Error (path ^ ": " ^ m)
      | None -> Ok (!config, !invariant, List.rev !ops))
  | _ -> Error (path ^ ": not a campaign trace (bad magic line)")

let replay path =
  Result.map
    (fun (config, _invariant, trace) -> Scenario.run config trace)
    (load path)

(* --- the campaign loop ---------------------------------------------------- *)

(* Two verdicts reproduce the same failure iff they agree on class and,
   for violations, on the invariant. *)
let same_failure reference candidate =
  match (reference, candidate) with
  | Scenario.Violation (i, _), Scenario.Violation (j, _) -> i = j
  | Scenario.Hang _, Scenario.Hang _ -> true
  | _ -> false

let verdict_invariant = function
  | Scenario.Violation (i, _) -> Scenario.invariant_name i
  | Scenario.Hang _ -> "hang"
  | Scenario.Pass -> "pass"

let verdict_detail = function
  | Scenario.Violation (_, d) | Scenario.Hang d -> d
  | Scenario.Pass -> ""

(* Config simplification candidates for the shrinker, each strictly
   toward the simplest stack: fewer devices (floor 2, so migration
   stays exercisable), transfer cache off, SVA off, doorbells off,
   batching off.  A candidate that stops reproducing is simply not
   adopted, so the saved reproducer's config is always one the
   violation was actually observed under. *)
let shrink_config (c : Scenario.config) =
  List.concat
    [
      (if c.Scenario.sc_devices > 2 then
         [ { c with Scenario.sc_devices = c.Scenario.sc_devices - 1 } ]
       else []);
      (if c.Scenario.sc_cache > 0 then [ { c with Scenario.sc_cache = 0 } ]
       else []);
      (if c.Scenario.sc_sva then [ { c with Scenario.sc_sva = false } ]
       else []);
      (if c.Scenario.sc_doorbell then
         [ { c with Scenario.sc_doorbell = false } ]
       else []);
      (if c.Scenario.sc_batching then
         [ { c with Scenario.sc_batching = false } ]
       else []);
    ]

(* Shrinking keeps the failure's class and invariant, not its detail
   (call counts, vm ids), so the detail comes from one more run of the
   shrunk trace: the one a replay of the corpus file repeats. *)
let record ?corpus_dir ~log ~iteration ~config ~verdict ~trace
    verdict_of =
  let original_len = List.length trace in
  let original_config = config in
  let oracle cfg cand = same_failure verdict (verdict_of cfg cand) in
  let config, shrunk =
    Shrink.minimize_with_config ~shrink_config ~oracle config trace
  in
  log
    (Printf.sprintf
       "iteration %d: %s — shrunk %d ops to %d%s (%d replays)" iteration
       (verdict_invariant verdict) original_len (List.length shrunk)
       (if config = original_config then "" else ", config simplified")
       (Shrink.runs ()));
  let invariant = verdict_invariant verdict in
  let detail = verdict_detail (verdict_of config shrunk) in
  let file =
    Option.map
      (fun dir ->
        let path =
          Filename.concat dir
            (Printf.sprintf "shrunk-%s-it%d-seed%Ld.trace" invariant
               iteration config.Scenario.sc_seed)
        in
        save ~path ~config ~invariant ~detail shrunk;
        log (Printf.sprintf "  recorded %s" path);
        path)
      corpus_dir
  in
  {
    vr_iteration = iteration;
    vr_config = config;
    vr_invariant = invariant;
    vr_detail = detail;
    vr_trace = shrunk;
    vr_original_len = original_len;
    vr_file = file;
  }

(* A campaign ends early once this many violations are recorded. *)
let stop_after = 5

let run ?(log = ignore) ?corpus_dir ?(twin_every = 16) ?(max_ops = 30) ~seed
    ~budget () =
  let master = Rng.create seed in
  let violations = ref [] in
  let applied = ref 0 in
  let twins = ref 0 in
  let iterations = ref 0 in
  (let i = ref 0 in
   while !i < budget && List.length !violations < stop_after do
     let iteration = !i in
     incr i;
     incr iterations;
     (* One independent stream per iteration: iteration k's scenario is
        a function of (campaign seed, k) alone, never of what earlier
        iterations drew. *)
     let rng = Rng.split master in
     let config = Scenario.random_config rng in
     let length = 10 + Rng.int rng (Stdlib.max 1 (max_ops - 10)) in
     let trace =
       Op.gen rng
         {
           Op.g_devices = config.Scenario.sc_devices;
           g_max_tenants = config.Scenario.sc_max_tenants;
           g_length = length;
         }
     in
     let outcome = Scenario.run config trace in
     applied := !applied + outcome.Scenario.oc_applied;
     match outcome.Scenario.oc_verdict with
     | Scenario.Pass ->
         if twin_every > 0 && iteration mod twin_every = 0 then begin
           incr twins;
           match Scenario.check_twin config trace with
           | Scenario.Pass -> ()
           | verdict ->
               violations :=
                 record ?corpus_dir ~log ~iteration ~config ~verdict ~trace
                   Scenario.check_twin
                 :: !violations
         end
     | verdict ->
         violations :=
           record ?corpus_dir ~log ~iteration ~config ~verdict ~trace
             (fun cfg cand -> (Scenario.run cfg cand).Scenario.oc_verdict)
           :: !violations
   done);
  {
    cs_seed = seed;
    cs_budget = budget;
    cs_iterations = !iterations;
    cs_applied = !applied;
    cs_twin_checks = !twins;
    cs_violations = List.rev !violations;
  }

let summary_json s =
  let violation v =
    Json.Obj
      [
        ("iteration", Json.Int v.vr_iteration);
        ("invariant", Json.String v.vr_invariant);
        ("detail", Json.String v.vr_detail);
        ("original_ops", Json.Int v.vr_original_len);
        ("shrunk_ops", Json.Int (List.length v.vr_trace));
        ( "trace",
          Json.List
            (List.map (fun op -> Json.String (Op.to_line op)) v.vr_trace) );
        ( "file",
          match v.vr_file with
          | Some f -> Json.String f
          | None -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("seed", Json.String (Int64.to_string s.cs_seed));
      ("budget", Json.Int s.cs_budget);
      ("iterations", Json.Int s.cs_iterations);
      ("ops_applied", Json.Int s.cs_applied);
      ("twin_checks", Json.Int s.cs_twin_checks);
      ("violations", Json.List (List.map violation s.cs_violations));
    ]

(* --- self-test ------------------------------------------------------------ *)

(* Whether a sabotaged run's verdict proves the checks fired: a crashed
   worker may surface through any invariant, an overcharge only
   through accounting, a swallowed failure only through the
   deferred-errors check. *)
let caught sabotage verdict =
  match (sabotage, verdict) with
  | _, Scenario.Pass -> false
  | Scenario.Crash_worker, _ -> true
  | Scenario.Overcharge, Scenario.Violation (i, _) -> i = Scenario.Accounting
  | Scenario.Overcharge, Scenario.Hang _ -> false
  | Scenario.Lose_failures, Scenario.Violation (i, _) -> i = Scenario.Deferred_errors
  | Scenario.Lose_failures, Scenario.Hang _ -> false

(* A small healthy trace, then each sabotage in turn: Scenario kills a
   worker under an in-flight workload and never restarts it, charges
   one call the guest never issued, or swallows an async failure.  A verdict that is not [caught]
   means the invariant checks have gone blind. *)
let self_test ?(seed = 7L) () =
  let config =
    { Scenario.default_config with Scenario.sc_seed = seed; sc_faults = "none" }
  in
  let trace =
    [
      { Op.delay_ns = 0; kind = Op.Admit };
      { Op.delay_ns = 0; kind = Op.Submit (0, Op.Vec_add 64) };
      { Op.delay_ns = Time.us 100; kind = Op.Admit };
      { Op.delay_ns = 0; kind = Op.Submit (1, Op.Vec_add 64) };
    ]
  in
  List.map
    (fun sabotage -> (sabotage, Scenario.run ~sabotage config trace))
    [ Scenario.Crash_worker; Scenario.Overcharge; Scenario.Lose_failures ]
