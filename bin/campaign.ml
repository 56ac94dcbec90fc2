(* Scenario-campaign CLI: the property-based chaos harness over the
   full AvA fleet (pool + remoting + SVA/doorbell + faults).

     campaign --seed 42 --budget 500                # PR smoke
     campaign --seed 42 --budget 20000 --corpus-dir test/corpus
     campaign --self-test                           # prove checks fire

   Replay the regression corpus, one --replay per file:

     for f in test/corpus/*.trace; do campaign --replay "$f"; done

   Same seed, same budget => same op traces, same verdicts: every
   stochastic choice derives from --seed (default: AVA_CHAOS_SEED, so
   the CI matrix sweeps the campaign with the other chaos suites).
   Exit status: 0 green, 1 violation found (or a replay that no longer
   passes), 2 usage/corpus error. *)

module Campaign = Ava_campaign.Campaign
module Chaos_env = Ava_campaign.Chaos_env
module Scenario = Ava_campaign.Scenario
module Json = Ava_obs.Json
open Cmdliner

let log line =
  print_string line;
  print_newline ()

let write_summary path summary =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (Campaign.summary_json summary));
  output_string oc "\n";
  close_out oc;
  log (Printf.sprintf "summary written to %s" path)

let run_replays files =
  let failures =
    List.filter
      (fun file ->
        match Campaign.replay file with
        | Ok { Scenario.oc_verdict = Scenario.Pass; _ } ->
            log (Printf.sprintf "replay %s: pass" file);
            false
        | Ok outcome ->
            log
              (Format.asprintf "replay %s: %a" file Scenario.pp_verdict
                 outcome.Scenario.oc_verdict);
            true
        | Error m ->
            log (Printf.sprintf "replay %s: corpus error: %s" file m);
            true)
      files
  in
  if failures = [] then 0 else 1

let run_self_test () =
  let ok (sabotage, outcome) =
    let v = outcome.Scenario.oc_verdict in
    let caught = Campaign.caught sabotage v in
    log
      (Format.asprintf "self-test: %s — sabotaged run gave %a"
         (if caught then "ok" else "FAILED")
         Scenario.pp_verdict v);
    caught
  in
  if List.for_all Fun.id (List.map ok (Campaign.self_test ())) then 0 else 1

let run_campaign seed budget max_ops twin_every corpus_dir summary_path =
  log
    (Printf.sprintf "campaign: seed=%Ld budget=%d max-ops=%d twin-every=%d"
       seed budget max_ops twin_every);
  (match corpus_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  let summary =
    Campaign.run ~log ?corpus_dir ~twin_every ~max_ops ~seed ~budget ()
  in
  Option.iter (fun p -> write_summary p summary) summary_path;
  let n = List.length summary.Campaign.cs_violations in
  log
    (Printf.sprintf
       "campaign: %d iterations, %d ops applied, %d twin checks, %d \
        violations"
       summary.Campaign.cs_iterations summary.Campaign.cs_applied
       summary.Campaign.cs_twin_checks n);
  if n = 0 then 0 else 1

let main seed budget max_ops twin_every corpus_dir summary_path replays
    self_test =
  if self_test then run_self_test ()
  else if replays <> [] then run_replays replays
  else run_campaign seed budget max_ops twin_every corpus_dir summary_path

let seed_arg =
  Arg.(
    value
    & opt int64 (Chaos_env.seed64 ~default:42L)
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Campaign seed; every iteration's config and trace derive from \
           it.  Defaults to \\$AVA_CHAOS_SEED when set.")

let budget_arg =
  Arg.(
    value & opt int 200
    & info [ "budget" ] ~docv:"N" ~doc:"Scenario iterations to run.")

let max_ops_arg =
  Arg.(
    value & opt int 30
    & info [ "max-ops" ] ~docv:"N"
        ~doc:"Upper bound on generated trace length.")

let twin_every_arg =
  Arg.(
    value & opt int 16
    & info [ "twin-every" ] ~docv:"K"
        ~doc:
          "Re-run every K-th clean iteration with observability armed and \
           require a bit-identical outcome (0 disables).")

let corpus_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus-dir" ] ~docv:"DIR"
        ~doc:
          "Record each shrunk violating trace as a replayable corpus file \
           in $(docv) (created if missing).")

let summary_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "summary" ] ~docv:"PATH"
        ~doc:"Write a JSON rollup of the campaign to $(docv).")

let replay_arg =
  Arg.(
    value & opt_all string []
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay a corpus trace instead of running a campaign \
           (repeatable).  Exit 1 unless every file replays to pass.")

let self_test_arg =
  Arg.(
    value & flag
    & info [ "self-test" ]
        ~doc:
          "Run a deliberately sabotaged scenario and exit 0 only if the \
           invariant checks catch it.")

let () =
  let info =
    Cmd.info "campaign" ~version:"1.0"
      ~doc:
        "Property-based chaos campaigns over the simulated AvA fleet, \
         with seed shrinking and a replayable regression corpus."
  in
  let term =
    Term.(
      const main $ seed_arg $ budget_arg $ max_ops_arg $ twin_every_arg
      $ corpus_dir_arg $ summary_arg $ replay_arg $ self_test_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
