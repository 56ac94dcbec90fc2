(* Scenario-campaign suite: the property-based chaos harness itself.

   Four contracts under test:
   - determinism: same seed, same budget => bit-identical campaign
     summaries and scenario outcomes (the CLI acceptance contract);
   - the harness is not blind: the sabotaged self-test scenario is
     caught by the invariant checks;
   - shrinking is sound: a shrunk trace still satisfies the oracle it
     was shrunk under, is never longer than its parent, and is a
     subsequence of it (qcheck over random traces);
   - the regression corpus replays green: every checked-in reproducer
     in [corpus/] was recorded against a since-fixed stack bug and
     must now pass.

   Plus the pool retirement regressions that ride along with the
   harness (idempotent retire, retire-vs-migration races).

   [AVA_CHAOS_SEED] re-seeds the random-trace properties (the CI
   campaign job sweeps a small seed matrix); every assertion holds for
   any seed. *)

module Pool = Ava_pool.Pool
module Server = Ava_remoting.Server
module Host = Ava_core.Host
module Campaign = Ava_campaign.Campaign
module Chaos_env = Ava_campaign.Chaos_env
module Op = Ava_campaign.Op
module Scenario = Ava_campaign.Scenario
module Shrink = Ava_campaign.Shrink
open Ava_sim

let chaos_seed = Chaos_env.seed64 ~default:42L

let verdict_str v = Format.asprintf "%a" Scenario.pp_verdict v

let same_invariant a b =
  match (a, b) with
  | Scenario.Violation (i, _), Scenario.Violation (j, _) -> i = j
  | Scenario.Hang _, Scenario.Hang _ -> true
  | Scenario.Pass, Scenario.Pass -> true
  | _ -> false

(* --- determinism ---------------------------------------------------------- *)

let campaign_fingerprint (s : Campaign.summary) =
  ( s.Campaign.cs_iterations,
    s.Campaign.cs_applied,
    s.Campaign.cs_twin_checks,
    List.map
      (fun v ->
        ( v.Campaign.vr_iteration,
          v.Campaign.vr_invariant,
          List.map Op.to_line v.Campaign.vr_trace ))
      s.Campaign.cs_violations )

let determinism_tests =
  [
    Alcotest.test_case "same seed, same campaign summary" `Quick (fun () ->
        let run () =
          Campaign.run ~log:ignore ~twin_every:4 ~max_ops:12 ~seed:chaos_seed
            ~budget:6 ()
        in
        let a = run () and b = run () in
        Alcotest.(check bool)
          "summaries identical" true
          (campaign_fingerprint a = campaign_fingerprint b));
    Alcotest.test_case "same trace, same scenario outcome" `Quick (fun () ->
        let rng = Rng.create chaos_seed in
        let config = Scenario.random_config rng in
        let trace =
          Op.gen rng
            {
              Op.g_devices = config.Scenario.sc_devices;
              g_max_tenants = config.Scenario.sc_max_tenants;
              g_length = 14;
            }
        in
        let a = Scenario.run config trace and b = Scenario.run config trace in
        Alcotest.(check string)
          "verdict" (verdict_str a.Scenario.oc_verdict)
          (verdict_str b.Scenario.oc_verdict);
        Alcotest.(check int)
          "final virtual time" a.Scenario.oc_final_ns b.Scenario.oc_final_ns;
        Alcotest.(check int)
          "executed calls" a.Scenario.oc_executed b.Scenario.oc_executed);
  ]

(* --- the harness catches a broken stack ----------------------------------- *)

let self_test_tests =
  [
    Alcotest.test_case "sabotaged scenario is caught" `Quick (fun () ->
        List.iter
          (fun (sabotage, outcome) ->
            Alcotest.(check bool)
              (verdict_str outcome.Scenario.oc_verdict)
              true
              (Campaign.caught sabotage outcome.Scenario.oc_verdict))
          (Campaign.self_test ~seed:chaos_seed ()));
    Alcotest.test_case "overcharge is an accounting violation" `Quick
      (fun () ->
        match
          List.assoc Scenario.Overcharge (Campaign.self_test ~seed:chaos_seed ())
        with
        | { Scenario.oc_verdict = Scenario.Violation (Scenario.Accounting, _); _ }
          ->
            ()
        | o -> Alcotest.fail (verdict_str o.Scenario.oc_verdict));
    Alcotest.test_case "a swallowed async failure is a deferred-errors violation"
      `Quick (fun () ->
        match
          List.assoc Scenario.Lose_failures (Campaign.self_test ~seed:chaos_seed ())
        with
        | { Scenario.oc_verdict = Scenario.Violation (Scenario.Deferred_errors, _); _ }
          ->
            ()
        | o -> Alcotest.fail (verdict_str o.Scenario.oc_verdict));
    Alcotest.test_case "sabotage verdict is deterministic" `Quick (fun () ->
        let verdicts () =
          List.map
            (fun (_, o) -> verdict_str o.Scenario.oc_verdict)
            (Campaign.self_test ~seed:chaos_seed ())
        in
        Alcotest.(check (list string)) "same verdicts" (verdicts ()) (verdicts ()));
  ]

(* --- shrinking ------------------------------------------------------------ *)

(* Is [sub] a subsequence of [sup] (by op identity)? *)
let rec subsequence sub sup =
  match (sub, sup) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys ->
      if x = y then subsequence xs ys else subsequence sub ys

let gen_trace seed len =
  let rng = Rng.create seed in
  Op.gen rng { Op.g_devices = 3; g_max_tenants = 3; g_length = len }

let shrink_tests =
  [
    (* The satellite property, end to end on the real interpreter: shrink
       a genuinely violating scenario (the sabotaged stack) under the
       same-invariant oracle; the result must still violate the same
       invariant and never be longer than its parent. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"shrunk trace violates the same invariant, never longer"
         ~count:4
         QCheck.(pair (int_range 2 7) small_int)
         (fun (len, salt) ->
           let config =
             {
               Scenario.default_config with
               Scenario.sc_seed =
                 Int64.add chaos_seed (Int64.of_int (salt + 1));
               sc_faults = "none";
             }
           in
           let parent = gen_trace config.Scenario.sc_seed len in
           let violates tr =
             (Scenario.run ~sabotage:Scenario.Crash_worker config tr).Scenario.oc_verdict
           in
           let parent_verdict = violates parent in
           QCheck.assume (parent_verdict <> Scenario.Pass);
           let shrunk =
             Shrink.minimize ~max_runs:30
               ~oracle:(fun tr -> same_invariant parent_verdict (violates tr))
               parent
           in
           same_invariant parent_verdict (violates shrunk)
           && List.length shrunk <= List.length parent));
    (* Structural soundness of the shrinker on a cheap content oracle:
       result satisfies the oracle, is minimal-ish, and is a true
       subsequence with only delays shrunk. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"shrinker output is an oracle-true subsequence"
         ~count:50
         QCheck.(pair small_int (int_range 4 24))
         (fun (salt, len) ->
           let parent =
             gen_trace (Int64.add chaos_seed (Int64.of_int salt)) len
           in
           let has_kind p tr = List.exists (fun o -> p o.Op.kind) tr in
           let oracle tr =
             has_kind (function Op.Admit -> true | _ -> false) tr
           in
           QCheck.assume (oracle parent);
           let shrunk = Shrink.minimize ~max_runs:100 ~oracle parent in
           let zeroed =
             List.map (fun o -> { o with Op.delay_ns = 0 }) shrunk
           in
           oracle shrunk
           && List.length shrunk <= List.length parent
           && subsequence zeroed
                (List.map (fun o -> { o with Op.delay_ns = 0 }) parent)));
    Alcotest.test_case "sabotage-only scenario shrinks to empty" `Quick
      (fun () ->
        let config =
          { Scenario.default_config with Scenario.sc_faults = "none" }
        in
        let parent = gen_trace chaos_seed 5 in
        let violates tr =
          (Scenario.run ~sabotage:Scenario.Crash_worker config tr).Scenario.oc_verdict
        in
        let parent_verdict = violates parent in
        Alcotest.(check bool)
          "parent violates" true
          (parent_verdict <> Scenario.Pass);
        let shrunk =
          Shrink.minimize ~max_runs:60
            ~oracle:(fun tr -> same_invariant parent_verdict (violates tr))
            parent
        in
        (* The violation comes from the sabotage, not the trace, so
           ddmin must strip every op. *)
        Alcotest.(check int) "empty reproducer" 0 (List.length shrunk));
  ]

(* --- corpus replay -------------------------------------------------------- *)

let corpus_files () =
  Sys.readdir "corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".trace")
  |> List.sort compare
  |> List.map (Filename.concat "corpus")

let corpus_tests =
  [
    Alcotest.test_case "corpus is non-trivial" `Quick (fun () ->
        Alcotest.(check bool)
          "at least 3 reproducers" true
          (List.length (corpus_files ()) >= 3));
    Alcotest.test_case "every reproducer replays to pass" `Quick (fun () ->
        List.iter
          (fun file ->
            match Campaign.replay file with
            | Ok { Scenario.oc_verdict = Scenario.Pass; _ } -> ()
            | Ok o ->
                Alcotest.failf "%s replays to %s" file
                  (verdict_str o.Scenario.oc_verdict)
            | Error m -> Alcotest.failf "%s: corpus error: %s" file m)
          (corpus_files ()));
    Alcotest.test_case "corpus round-trips through save/load" `Quick (fun () ->
        List.iter
          (fun file ->
            match Campaign.load file with
            | Error m -> Alcotest.failf "%s: %s" file m
            | Ok (config, invariant, trace) ->
                let tmp = Filename.temp_file "ava-corpus" ".trace" in
                Campaign.save ~path:tmp ~config ~invariant ~detail:"roundtrip"
                  trace;
                let reloaded = Campaign.load tmp in
                Sys.remove tmp;
                (match reloaded with
                | Error m -> Alcotest.failf "%s reload: %s" file m
                | Ok (config', invariant', trace') ->
                    Alcotest.(check bool) "config" true (config = config');
                    Alcotest.(check string) "invariant" invariant invariant';
                    Alcotest.(check (list string))
                      "ops" (List.map Op.to_line trace)
                      (List.map Op.to_line trace')))
          (corpus_files ()));
    Alcotest.test_case "a trace without a batching key loads unbatched" `Quick
      (fun () ->
        let tmp = Filename.temp_file "ava-corpus" ".trace" in
        let load lines =
          Out_channel.with_open_text tmp (fun oc ->
              List.iter (fun l -> output_string oc (l ^ "\n")) lines);
          match Campaign.load tmp with
          | Ok (config, _, _) -> config.Scenario.sc_batching
          | Error m -> Alcotest.failf "load: %s" m
        in
        let head = [ "ava-campaign-trace v1"; "invariant seq-ledger"; "seed 7" ] in
        let unkeyed = load (head @ [ "op 0 admit"; "end" ]) in
        let keyed = load (head @ [ "batching true"; "op 0 admit"; "end" ]) in
        Sys.remove tmp;
        Alcotest.(check bool) "missing key means false" false unkeyed;
        Alcotest.(check bool) "key read back" true keyed);
    Alcotest.test_case "a recorded file's detail is its replay's" `Quick
      (fun () ->
        (* The overcharge detail names call counts, and shrinking drops
           calls: a detail taken before shrinking would name counts
           the saved trace never produces. *)
        let overcharged cfg tr =
          (Scenario.run ~sabotage:Scenario.Overcharge cfg tr).Scenario.oc_verdict
        in
        let detail = function
          | Scenario.Violation (_, d) | Scenario.Hang d -> d
          | Scenario.Pass -> Alcotest.fail "sabotage not caught"
        in
        let config =
          { Scenario.default_config with Scenario.sc_seed = chaos_seed;
            sc_faults = "none" }
        in
        let trace =
          [
            { Op.delay_ns = 0; kind = Op.Admit };
            { Op.delay_ns = 0; kind = Op.Submit (0, Op.Vec_add 64) };
            { Op.delay_ns = Time.us 100; kind = Op.Admit };
            { Op.delay_ns = 0; kind = Op.Submit (1, Op.Vec_add 64) };
          ]
        in
        let verdict = overcharged config trace in
        let dir = Filename.temp_dir "ava-corpus" "" in
        let report =
          Campaign.record ~corpus_dir:dir ~log:ignore ~iteration:0 ~config
            ~verdict ~trace overcharged
        in
        let file = Option.get report.Campaign.vr_file in
        let saved =
          In_channel.with_open_text file In_channel.input_all
          |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 if String.starts_with ~prefix:"detail " l then
                   Some (String.sub l 7 (String.length l - 7))
                 else None)
          |> Option.get
        in
        (* [Campaign.replay] runs the stack unsabotaged; this is the
           same load-and-run with the sabotage the file was recorded
           under. *)
        let replayed =
          match Campaign.load file with
          | Ok (config, _, trace) -> detail (overcharged config trace)
          | Error m -> Alcotest.failf "load: %s" m
        in
        Sys.remove file;
        Sys.rmdir dir;
        Alcotest.(check bool)
          "shrinking changed the detail" true
          (detail verdict <> replayed);
        Alcotest.(check string) "file detail" replayed saved;
        Alcotest.(check string) "report detail" replayed
          report.Campaign.vr_detail);
  ]

(* --- pool retirement regressions ------------------------------------------ *)

let pool_host e = Host.create_cl_host ~devices:3 e
let the_pool (host : Host.cl_host) = host.Host.cl_pool

let retire_tests =
  [
    Alcotest.test_case "retire then double retire" `Quick (fun () ->
        let e = Engine.create () in
        let host = pool_host e in
        let g = Host.add_cl_vm host ~name:"t0" in
        let vm_id = Ava_hv.Vm.id g.Host.g_vm in
        let pool = the_pool host in
        Alcotest.(check bool) "first retire" true (Pool.retire_vm pool ~vm_id);
        Alcotest.(check bool)
          "second retire refused" false
          (Pool.retire_vm pool ~vm_id);
        Alcotest.(check int) "one retirement counted" 1 (Pool.retires pool);
        Alcotest.(check bool)
          "no residency left" true
          (Pool.device_of pool ~vm_id = None));
    Alcotest.test_case "retire of unknown vm is refused" `Quick (fun () ->
        let e = Engine.create () in
        let pool = the_pool (pool_host e) in
        Alcotest.(check bool) "refused" false (Pool.retire_vm pool ~vm_id:99));
    Alcotest.test_case "retire refused while migration in flight" `Quick
      (fun () ->
        let e = Engine.create () in
        let host = pool_host e in
        let g = Host.add_cl_vm host ~name:"mover" in
        let vm_id = Ava_hv.Vm.id g.Host.g_vm in
        let pool = the_pool host in
        let src = Option.get (Pool.device_of pool ~vm_id) in
        let dest = (src + 1) mod 3 in
        let mid_drain = ref None in
        Engine.spawn e (fun () ->
            ignore (Pool.migrate_vm pool ~vm_id ~dest));
        Engine.spawn e (fun () ->
            (* Land inside the drain window (drain is 200us). *)
            Engine.delay (Time.us 50);
            mid_drain := Some (Pool.retire_vm pool ~vm_id));
        Engine.run e;
        Alcotest.(check (option bool))
          "retire during drain refused" (Some false) !mid_drain;
        Alcotest.(check int)
          "migration completed" dest
          (Option.get (Pool.device_of pool ~vm_id));
        Alcotest.(check int) "nothing aborted" 0 (Pool.aborted_migrations pool);
        (* After the migration settles the retire goes through. *)
        Alcotest.(check bool) "late retire" true (Pool.retire_vm pool ~vm_id));
    Alcotest.test_case "host retire releases iommu and recorder" `Quick
      (fun () ->
        let e = Engine.create () in
        let host = pool_host e in
        let g = Host.add_cl_vm host ~name:"t0" in
        let vm_id = Ava_hv.Vm.id g.Host.g_vm in
        Alcotest.(check bool) "retired" true (Host.retire_cl_vm host ~vm_id);
        Alcotest.(check bool)
          "iommu released" false
          (Hashtbl.mem host.Host.iommus vm_id);
        let pool = the_pool host in
        Alcotest.(check bool)
          "server entry gone" true
          (List.for_all
             (fun d -> Server.vm_ctx (Pool.server pool d) ~vm_id = None)
             (List.init (Pool.n_devices pool) Fun.id));
        Alcotest.(check bool)
          "second host retire refused" false
          (Host.retire_cl_vm host ~vm_id));
  ]

(* --- a small real campaign ------------------------------------------------ *)

let smoke_tests =
  [
    Alcotest.test_case "25-iteration campaign is green" `Slow (fun () ->
        let summary =
          Campaign.run ~log:ignore ~twin_every:8 ~max_ops:20 ~seed:chaos_seed
            ~budget:25 ()
        in
        Alcotest.(check int) "iterations" 25 summary.Campaign.cs_iterations;
        Alcotest.(check (list string))
          "no violations" []
          (List.map
             (fun v -> v.Campaign.vr_invariant)
             summary.Campaign.cs_violations));
  ]

(* --- the pressure ops (satellite: swap-pressure / quota-exhaustion) ------- *)

let pressure_op_tests =
  [
    Alcotest.test_case "new op kinds round-trip the corpus format" `Quick
      (fun () ->
        List.iter
          (fun op ->
            let line = Op.to_line op in
            match Op.of_line line with
            | Ok op' ->
                Alcotest.(check string)
                  (Printf.sprintf "round-trip %s" line)
                  line (Op.to_line op')
            | Error m -> Alcotest.failf "%s failed to parse: %s" line m)
          [
            { Op.delay_ns = 0; kind = Op.Swap_pressure (0, 3) };
            { Op.delay_ns = Time.us 5; kind = Op.Swap_pressure (2, 1) };
            { Op.delay_ns = 0; kind = Op.Quota_exhaust 1 };
            { Op.delay_ns = Time.ms 1; kind = Op.Quota_exhaust 0 };
            { Op.delay_ns = 0; kind = Op.Submit_nc (0, 4096) };
            { Op.delay_ns = Time.us 9; kind = Op.Submit_nc (3, 16384) };
            { Op.delay_ns = 0; kind = Op.Submit_qa (1, 64) };
            { Op.delay_ns = Time.ms 2; kind = Op.Submit_qa (0, 256) };
          ]);
    Alcotest.test_case "side-silo ops run green in a scenario" `Quick
      (fun () ->
        (* NC and QA work interleaved with pool-silo submissions: the
           side silos are fault-free, so any error there is a real
           isolation violation and the run must stay green. *)
        let config =
          {
            Scenario.default_config with
            Scenario.sc_seed = chaos_seed;
            sc_faults = "none";
          }
        in
        let trace =
          [
            { Op.delay_ns = 0; kind = Op.Admit };
            { Op.delay_ns = 0; kind = Op.Admit };
            { Op.delay_ns = 0; kind = Op.Submit_nc (0, 4096) };
            { Op.delay_ns = Time.us 20; kind = Op.Submit (1, Op.Vec_add 64) };
            { Op.delay_ns = 0; kind = Op.Submit_qa (1, 32) };
            { Op.delay_ns = Time.us 20; kind = Op.Submit_nc (1, 1024) };
            { Op.delay_ns = 0; kind = Op.Submit_qa (0, 8) };
          ]
        in
        let outcome = Scenario.run config trace in
        Alcotest.(check string)
          "verdict" "pass"
          (Format.asprintf "%a" Scenario.pp_verdict
             outcome.Scenario.oc_verdict);
        Alcotest.(check int) "all ops applied" 7 outcome.Scenario.oc_applied);
    Alcotest.test_case "generator emits the side-silo ops" `Quick (fun () ->
        let rng = Rng.create 11L in
        let trace =
          Op.gen rng { Op.g_devices = 3; g_max_tenants = 4; g_length = 400 }
        in
        let has p = List.exists (fun o -> p o.Op.kind) trace in
        Alcotest.(check bool) "nc submits generated" true
          (has (function Op.Submit_nc _ -> true | _ -> false));
        Alcotest.(check bool) "qa submits generated" true
          (has (function Op.Submit_qa _ -> true | _ -> false)));
    Alcotest.test_case "pressure ops run green in a scenario" `Quick
      (fun () ->
        (* Buffer churn against the transfer-cache layer plus a
           near-zero device-time quota: the stack must throttle and
           verify, never wedge or corrupt. *)
        let config =
          {
            Scenario.default_config with
            Scenario.sc_seed = chaos_seed;
            sc_faults = "none";
          }
        in
        let trace =
          [
            { Op.delay_ns = 0; kind = Op.Admit };
            { Op.delay_ns = 0; kind = Op.Submit (0, Op.Vec_add 64) };
            { Op.delay_ns = Time.us 50; kind = Op.Swap_pressure (0, 2) };
            { Op.delay_ns = 0; kind = Op.Quota_exhaust 0 };
            { Op.delay_ns = Time.us 50; kind = Op.Submit (0, Op.Vec_add 32) };
          ]
        in
        let outcome = Scenario.run config trace in
        Alcotest.(check string)
          "verdict" "pass"
          (Format.asprintf "%a" Scenario.pp_verdict
             outcome.Scenario.oc_verdict);
        Alcotest.(check int) "all ops applied" 5 outcome.Scenario.oc_applied);
    Alcotest.test_case "generator emits the pressure ops" `Quick (fun () ->
        let rng = Rng.create 7L in
        let trace =
          Op.gen rng { Op.g_devices = 3; g_max_tenants = 4; g_length = 400 }
        in
        let has p = List.exists (fun o -> p o.Op.kind) trace in
        Alcotest.(check bool) "swap-pressure generated" true
          (has (function Op.Swap_pressure _ -> true | _ -> false));
        Alcotest.(check bool) "quota-exhaustion generated" true
          (has (function Op.Quota_exhaust _ -> true | _ -> false)));
  ]

(* --- config-aware shrinking ------------------------------------------------ *)

let config_shrink_tests =
  [
    Alcotest.test_case "config shrinks to the simplest reproducer" `Quick
      (fun () ->
        (* Synthetic oracle over (int config, trace): reproduces while
           the config level is >= 2 and the trace still has a Submit.
           The shrinker must walk the config down to exactly 2 and keep
           the trace oracle-true and no longer than its parent. *)
        let parent = gen_trace chaos_seed 12 in
        let has_submit tr =
          List.exists
            (fun o -> match o.Op.kind with Op.Submit _ -> true | _ -> false)
            tr
        in
        QCheck.assume (has_submit parent);
        let oracle level tr = level >= 2 && has_submit tr in
        let shrink_config level = if level > 0 then [ level - 1 ] else [] in
        let level, shrunk =
          Shrink.minimize_with_config ~max_runs:200 ~shrink_config ~oracle 5
            parent
        in
        Alcotest.(check int) "config at its floor" 2 level;
        Alcotest.(check bool) "still reproduces" true (oracle level shrunk);
        Alcotest.(check bool)
          "no longer than parent" true
          (List.length shrunk <= List.length parent);
        Alcotest.(check bool)
          "subsequence of parent" true (subsequence shrunk parent));
    Alcotest.test_case "non-reproducing config candidates are not adopted"
      `Quick (fun () ->
        let parent = gen_trace chaos_seed 8 in
        let oracle level _ = level = 5 in
        let shrink_config level = if level > 0 then [ level - 1 ] else [] in
        let level, _ =
          Shrink.minimize_with_config ~max_runs:100 ~shrink_config ~oracle 5
            parent
        in
        Alcotest.(check int) "config unchanged" 5 level);
  ]

let () =
  Alcotest.run "ava_campaign"
    [
      ("determinism", determinism_tests);
      ("self-test", self_test_tests);
      ("shrinking", shrink_tests);
      ("pressure-ops", pressure_op_tests);
      ("config-shrink", config_shrink_tests);
      ("corpus", corpus_tests);
      ("retire", retire_tests);
      ("smoke", smoke_tests);
    ]
