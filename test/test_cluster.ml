(* Cluster-tier suite: the multi-host fleet layer and its synthetic
   trace generator.

   Contracts under test (ISSUE tentpole):
   - tracegen is pure in its config: same seed, same trace; session
     work is Pareto-tailed with the configured index; the diurnal
     amplitude reshapes time only (population, classes and work are
     conserved across amplitudes);
   - a 1-host cluster under the global policy is bit-identical in
     virtual time to the bare pooled host driven by the same schedule;
   - admission never lands a tenant on a quarantined host, under any
     policy, and admission with every host quarantined is refused;
   - cross-host migration preserves tenant data end to end: a buffer
     written (and server-cached) before the move reads back intact on
     the destination host, and the tenant retires cleanly there;
   - small generated traces replay deterministically on a 2-host
     cluster with zero session failures.

   [AVA_CHAOS_SEED] re-seeds the randomized properties; every
   assertion holds for any seed. *)

module Cluster = Ava_cluster.Cluster
module Tracegen = Ava_cluster.Tracegen
module Host = Ava_core.Host

open Ava_sim
open Ava_simcl.Types

let chaos_seed = Ava_campaign.Chaos_env.seed64 ~default:42L

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error %s" (error_to_string e)

(* A light trace that still exercises arrivals, hot/straggler classes
   and departures, but keeps each test run under a second. *)
let small_cfg =
  {
    Tracegen.default with
    Tracegen.tg_seed = chaos_seed;
    tg_tenants = 8;
    tg_sessions_mean = 2.0;
    tg_work_cap = 16;
  }

(* --- tracegen ------------------------------------------------------------- *)

let tracegen_tests =
  [
    Alcotest.test_case "same config, same trace" `Quick (fun () ->
        let a = Tracegen.generate small_cfg
        and b = Tracegen.generate small_cfg in
        Alcotest.(check bool) "identical event lists" true (a = b);
        Alcotest.(check bool)
          "different seed, different trace" false
          (Tracegen.generate
             { small_cfg with Tracegen.tg_seed = Int64.add chaos_seed 1L }
          = a));
    Alcotest.test_case "well-formed tenant lifecycles" `Quick (fun () ->
        let events = Tracegen.generate small_cfg in
        (* Sorted by virtual time. *)
        let rec sorted = function
          | a :: (b :: _ as rest) ->
              Tracegen.at a <= Tracegen.at b && sorted rest
          | _ -> true
        in
        Alcotest.(check bool) "time-sorted" true (sorted events);
        for t = 0 to small_cfg.Tracegen.tg_tenants - 1 do
          let mine = List.filter (fun ev -> Tracegen.tenant ev = t) events in
          let count p = List.length (List.filter p mine) in
          Alcotest.(check int)
            (Printf.sprintf "tenant %d arrives once" t)
            1
            (count (function Tracegen.Arrive _ -> true | _ -> false));
          Alcotest.(check int)
            (Printf.sprintf "tenant %d departs once" t)
            1
            (count (function Tracegen.Depart _ -> true | _ -> false));
          Alcotest.(check bool)
            (Printf.sprintf "tenant %d runs sessions" t)
            true
            (count (function Tracegen.Session _ -> true | _ -> false) >= 1)
        done);
    Alcotest.test_case "pareto tail index" `Quick (fun () ->
        (* For Pareto(alpha, xm), E[ln (X / xm)] = 1 / alpha.  20k
           samples pin the generator's tail to the configured index. *)
        let rng = Rng.create chaos_seed in
        let alpha = 1.5 and xm = 2.0 in
        let n = 20_000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          let x = Rng.pareto rng ~alpha ~xm in
          Alcotest.(check bool) "above scale" true (x >= xm);
          sum := !sum +. log (x /. xm)
        done;
        let mean = !sum /. float_of_int n in
        let expected = 1.0 /. alpha in
        Alcotest.(check bool)
          (Printf.sprintf "E[ln(X/xm)] = %.3f within 15%% (got %.3f)"
             expected mean)
          true
          (Float.abs (mean -. expected) /. expected < 0.15));
    Alcotest.test_case "diurnal amplitude conserves load shape" `Quick
      (fun () ->
        (* The amplitude must reshape arrival *times* only: the tenant
           population, class assignment, session count and per-session
           work are all drawn before modulation is applied. *)
        let flat =
          Tracegen.generate
            { small_cfg with Tracegen.tg_diurnal_amplitude = 0.0 }
        in
        let shape ev_list =
          ( Tracegen.total_work ev_list,
            Tracegen.total_sessions ev_list,
            List.filter_map
              (function
                | Tracegen.Arrive { tenant; klass; _ } -> Some (tenant, klass)
                | _ -> None)
              ev_list,
            List.sort Stdlib.compare
              (List.filter_map
                 (function
                   | Tracegen.Session { tenant; work; _ } ->
                       Some (tenant, work)
                   | _ -> None)
                 ev_list) )
        in
        List.iter
          (fun amplitude ->
            let modulated =
              Tracegen.generate
                { small_cfg with Tracegen.tg_diurnal_amplitude = amplitude }
            in
            Alcotest.(check bool)
              (Printf.sprintf "amplitude %.1f conserves work" amplitude)
              true
              (shape modulated = shape flat);
            Alcotest.(check bool)
              (Printf.sprintf "amplitude %.1f moves times" amplitude)
              true
              (modulated <> flat))
          [ 0.6; 0.8 ]);
  ]

(* --- hosts:1 identity ------------------------------------------------------ *)

(* The same per-tenant schedule driven straight at a bare pooled host;
   mirrors Cluster.run_trace exactly (same process names, same
   admission order) so a 1-host cluster can be compared makespan to
   makespan. *)
let bare_run events =
  let e = Engine.create () in
  let host =
    Host.create_cl_host ~devices:2 ~placement:Host.Pool.Least_loaded e
  in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let id = Tracegen.tenant ev in
      let prev =
        match Hashtbl.find_opt groups id with Some l -> l | None -> []
      in
      Hashtbl.replace groups id (ev :: prev))
    events;
  let ids =
    List.sort Stdlib.compare
      (Hashtbl.fold (fun id _ acc -> id :: acc) groups [])
  in
  let done_at = Hashtbl.create 16 in
  let until at =
    let now = Engine.now e in
    if at > now then Engine.delay (at - now)
  in
  List.iter
    (fun id ->
      let evs = List.rev (Hashtbl.find groups id) in
      Engine.spawn e
        ~name:(Printf.sprintf "ava-cluster-tenant-%d" id)
        (fun () ->
          let api = ref None and vm = ref 0 in
          List.iter
            (fun ev ->
              match ev with
              | Tracegen.Arrive { at; _ } ->
                  until at;
                  let g =
                    Host.add_cl_vm host ~name:(Printf.sprintf "trace-t%d" id)
                  in
                  vm := Ava_hv.Vm.id g.Host.g_vm;
                  api := Some g.Host.g_api
              | Tracegen.Session { at; work; _ } -> (
                  until at;
                  match !api with
                  | None -> ()
                  | Some a -> ignore (Cluster.run_session a ~work))
              | Tracegen.Depart { at; _ } ->
                  until at;
                  ignore (Host.retire_cl_vm host ~vm_id:!vm);
                  api := None)
            evs;
          Hashtbl.replace done_at id (Engine.now e)))
    ids;
  Engine.run e;
  Hashtbl.fold (fun _ at acc -> Stdlib.max at acc) done_at 0

let identity_tests =
  [
    Alcotest.test_case "1-host cluster is bit-identical to bare pool" `Quick
      (fun () ->
        let events = Tracegen.generate small_cfg in
        let bare = bare_run events in
        let e = Engine.create () in
        let c = Cluster.create ~devices_per_host:2 ~hosts:1 e in
        let r = Cluster.run_trace c events in
        Alcotest.(check int)
          "same virtual makespan" bare r.Cluster.tr_makespan;
        Alcotest.(check int)
          "all tenants retired" small_cfg.Tracegen.tg_tenants
          r.Cluster.tr_retired;
        Alcotest.(check int) "no failures" 0 r.Cluster.tr_failures);
  ]

(* --- admission & quarantine ------------------------------------------------ *)

let admission_tests =
  [
    Alcotest.test_case "quarantine steers admission away" `Quick (fun () ->
        let e = Engine.create () in
        let c = Cluster.create ~hosts:3 e in
        Cluster.quarantine_host c 0;
        Cluster.quarantine_host c 2;
        Engine.run_process e (fun () ->
            for i = 0 to 3 do
              let tn =
                Cluster.admit c ~name:(Printf.sprintf "quarantined-%d" i)
              in
              Alcotest.(check int)
                (Printf.sprintf "tenant %d on the only healthy host" i)
                1 (Cluster.host_of tn)
            done;
            Cluster.quarantine_host c 1;
            Alcotest.check_raises "all-quarantined admission refused"
              (Invalid_argument "Cluster.admit: every host is quarantined")
              (fun () -> ignore (Cluster.admit c ~name:"nowhere"));
            Cluster.unquarantine_host c 0;
            let tn = Cluster.admit c ~name:"recovered" in
            Alcotest.(check int) "recovered host used" 0 (Cluster.host_of tn));
        Alcotest.(check int) "one admission rejected" 1
          (Cluster.rejected_admissions c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:12
         ~name:"admission avoids quarantined hosts under every policy"
         QCheck.(pair small_int (int_range 0 2))
         (fun (salt, sick) ->
           List.for_all
             (fun policy ->
               let e = Engine.create () in
               let c =
                 Cluster.create ~policy
                   ~seed:(Int64.add chaos_seed (Int64.of_int salt))
                   ~hosts:3 e
               in
               Cluster.quarantine_host c sick;
               let placed = ref [] in
               Engine.run_process e (fun () ->
                   for i = 0 to 5 do
                     let tn =
                       Cluster.admit c
                         ~affinity:(Printf.sprintf "key-%d" (salt + i))
                         ~name:(Printf.sprintf "t%d-%d" salt i)
                     in
                     placed := Cluster.host_of tn :: !placed
                   done;
                   Cluster.stop c);
               List.for_all (fun h -> h <> sick) !placed)
             [
               Cluster.Global_least_loaded;
               Cluster.Gossip { g_fanout = 2; g_interval_ns = Time.us 50 };
               Cluster.Affinity;
             ]));
  ]

(* --- cross-host migration -------------------------------------------------- *)

let migration_tests =
  [
    Alcotest.test_case "cached buffer survives cross-host migration" `Quick
      (fun () ->
        (* The regression: a tenant writes a distinctive buffer (the
           server's transfer cache now holds its content), is then
           live-migrated to another host, and must read the same bytes
           back from the destination's replayed silo. *)
        let e = Engine.create () in
        let c =
          Cluster.create ~devices_per_host:2
            ~transfer_cache:(4 * 1024 * 1024) ~hosts:2 e
        in
        let size = 4096 in
        let payload =
          Bytes.init size (fun i -> Char.chr ((i * 7 + 13) land 0xff))
        in
        Engine.run_process e (fun () ->
            let tn = Cluster.admit c ~name:"mover" in
            let vm_id = Cluster.vm_id tn in
            let src_host = Cluster.host_of tn in
            let (module CL) = Cluster.api tn in
            let p = List.hd (ok (CL.clGetPlatformIDs ())) in
            let d = List.hd (ok (CL.clGetDeviceIDs p Device_gpu)) in
            let ctx = ok (CL.clCreateContext [ d ]) in
            let q = ok (CL.clCreateCommandQueue ctx d ~profiling:false) in
            let buf = ok (CL.clCreateBuffer ctx ~size) in
            ignore
              (ok
                 (CL.clEnqueueWriteBuffer q buf ~blocking:true ~offset:0
                    ~src:payload ~wait_list:[] ~want_event:false));
            ok (CL.clFinish q);
            let dest = 1 - src_host in
            let bytes = Cluster.migrate_tenant c ~vm_id ~dest in
            Alcotest.(check bool) "bytes moved" true (bytes > 0);
            Alcotest.(check int) "tenant follows" dest (Cluster.host_of tn);
            Alcotest.(check int) "one cross migration" 1
              (Cluster.cross_migrations c);
            (* Same handles, same transport, new host: the read must
               come back bit-identical. *)
            let got, _ =
              ok
                (CL.clEnqueueReadBuffer q buf ~blocking:true ~offset:0 ~size
                   ~wait_list:[] ~want_event:false)
            in
            Alcotest.(check bool)
              "payload intact on destination" true
              (Bytes.equal got payload);
            (* A buffer born on the destination host must survive the
               move home: the destination entry records from the
               hand-over on. *)
            let payload2 =
              Bytes.map (fun ch -> Char.chr (255 - Char.code ch)) payload
            in
            let buf2 = ok (CL.clCreateBuffer ctx ~size) in
            ignore
              (ok
                 (CL.clEnqueueWriteBuffer q buf2 ~blocking:true ~offset:0
                    ~src:payload2 ~wait_list:[] ~want_event:false));
            ok (CL.clFinish q);
            (* A second migration back also works; then retire clean. *)
            Alcotest.(check bool)
              "migrate home again" true
              (Cluster.migrate_tenant c ~vm_id ~dest:src_host > 0);
            let got2, _ =
              ok
                (CL.clEnqueueReadBuffer q buf2 ~blocking:true ~offset:0 ~size
                   ~wait_list:[] ~want_event:false)
            in
            Alcotest.(check bool)
              "destination-born buffer intact at home" true
              (Bytes.equal got2 payload2);
            Alcotest.(check bool)
              "retire on final host" true
              (Cluster.retire c ~vm_id);
            Alcotest.(check bool)
              "tenant gone" true
              (Cluster.find_tenant c ~vm_id = None)));
    Alcotest.test_case "same-host migration is refused, not fatal" `Quick
      (fun () ->
        let e = Engine.create () in
        let c = Cluster.create ~hosts:2 e in
        Engine.run_process e (fun () ->
            let tn = Cluster.admit c ~name:"stayer" in
            let vm_id = Cluster.vm_id tn in
            Alcotest.(check int)
              "same-host move refused" 0
              (Cluster.migrate_tenant c ~vm_id ~dest:(Cluster.host_of tn));
            let dest = 1 - Cluster.host_of tn in
            Cluster.quarantine_host c dest;
            Alcotest.check_raises "quarantined destination rejected"
              (Invalid_argument
                 (Printf.sprintf
                    "Cluster.migrate_tenant: host %d is quarantined" dest))
              (fun () -> ignore (Cluster.migrate_tenant c ~vm_id ~dest))));
    Alcotest.test_case "migration to a host with no healthy device is refused"
      `Quick (fun () ->
        (* The destination device is picked after the drain; with none
           left the source worker resumes and the claim is released, so
           the tenant keeps running where it was and can still retire. *)
        let e = Engine.create () in
        let c = Cluster.create ~devices_per_host:1 ~hosts:2 e in
        Engine.run_process e (fun () ->
            let tn = Cluster.admit c ~name:"stranded" in
            let vm_id = Cluster.vm_id tn in
            let src = Cluster.host_of tn in
            let dest = 1 - src in
            let dst_pool = (Cluster.cl_host c dest).Host.cl_pool in
            Host.Pool.kill_device dst_pool ~device:0;
            Alcotest.(check int)
              "no bytes moved" 0
              (Cluster.migrate_tenant c ~vm_id ~dest);
            Alcotest.(check int) "tenant stays home" src (Cluster.host_of tn);
            Alcotest.(check int) "no cross migration" 0
              (Cluster.cross_migrations c);
            let (module CL) = Cluster.api tn in
            Alcotest.(check bool)
              "next call completes on the source host" true
              (ok (CL.clGetPlatformIDs ()) <> []);
            Alcotest.(check bool) "retire succeeds" true
              (Cluster.retire c ~vm_id)));
    Alcotest.test_case "retire refused while a cross-host migration drains"
      `Quick (fun () ->
        let e = Engine.create () in
        let c = Cluster.create ~hosts:2 e in
        let tn = Cluster.admit c ~name:"mover" in
        let vm_id = Cluster.vm_id tn in
        let dest = 1 - Cluster.host_of tn in
        let mid_drain = ref None in
        Engine.spawn e (fun () ->
            ignore (Cluster.migrate_tenant c ~vm_id ~dest));
        Engine.spawn e (fun () ->
            Engine.delay (Host.Pool.drain_window / 4);
            let second = Cluster.migrate_tenant c ~vm_id ~dest in
            mid_drain := Some (second, Cluster.retire c ~vm_id));
        Engine.run e;
        Alcotest.(check (option (pair int bool)))
          "second migration and retire during drain refused"
          (Some (0, false)) !mid_drain;
        Alcotest.(check int) "migration completed" dest (Cluster.host_of tn);
        Alcotest.(check int) "one cross migration" 1
          (Cluster.cross_migrations c);
        Engine.run_process e (fun () ->
            let (module CL) = Cluster.api tn in
            Alcotest.(check bool)
              "tenant served on the destination" true
              (ok (CL.clGetPlatformIDs ()) <> []);
            Alcotest.(check bool) "late retire" true (Cluster.retire c ~vm_id)));
  ]

(* --- trace replay on a small fleet ---------------------------------------- *)

let replay_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:4
         ~name:"generated traces replay deterministically, zero failures"
         QCheck.(int_range 1 1000)
         (fun salt ->
           let cfg =
             {
               small_cfg with
               Tracegen.tg_seed = Int64.add chaos_seed (Int64.of_int salt);
               tg_tenants = 5;
             }
           in
           let events = Tracegen.generate cfg in
           let run () =
             let e = Engine.create () in
             let c = Cluster.create ~devices_per_host:2 ~hosts:2 e in
             Cluster.run_trace c events
           in
           let a = run () and b = run () in
           a = b && a.Cluster.tr_failures = 0
           && a.Cluster.tr_retired = cfg.Tracegen.tg_tenants));
    Alcotest.test_case "gossip fleet completes a trace" `Quick (fun () ->
        let events = Tracegen.generate small_cfg in
        let e = Engine.create () in
        let c =
          Cluster.create
            ~policy:
              (Cluster.Gossip { g_fanout = 2; g_interval_ns = Time.us 100 })
            ~hosts:3 e
        in
        let r = Cluster.run_trace c events in
        Alcotest.(check int) "no failures" 0 r.Cluster.tr_failures;
        Alcotest.(check int)
          "every tenant retired" small_cfg.Tracegen.tg_tenants
          r.Cluster.tr_retired;
        Alcotest.(check int)
          "every tenant admitted" small_cfg.Tracegen.tg_tenants
          (Cluster.admissions c));
    Alcotest.test_case "retired tenants leave no open spans" `Quick
      (fun () ->
        (* Each tenant's teardown releases are dispatched just before
           its retire; their replies never come, so retire must drop
           the spans or they stay in flight for ever. *)
        let events = Tracegen.generate small_cfg in
        let e = Engine.create () in
        let obs = Ava_obs.Obs.create () in
        let c = Cluster.create ~devices_per_host:2 ~hosts:2 ~obs e in
        let r = Cluster.run_trace c events in
        Alcotest.(check int)
          "every tenant retired" small_cfg.Tracegen.tg_tenants
          r.Cluster.tr_retired;
        Alcotest.(check bool)
          "spans were recorded" true
          (Ava_obs.Obs.spans_closed obs > 0);
        Alcotest.(check int) "nothing in flight" 0 (Ava_obs.Obs.in_flight obs));
  ]

let () =
  Alcotest.run "ava_cluster"
    [
      ("tracegen", tracegen_tests);
      ("identity", identity_tests);
      ("admission", admission_tests);
      ("migration", migration_tests);
      ("replay", replay_tests);
    ]
