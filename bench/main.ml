(* The evaluation harness: regenerates every table/figure of the paper
   plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- fig5-opencl  -- run one experiment

   Experiments:
     fig5-opencl                Figure 5, Rodinia bars (E1)
     fig5-ncs                   Figure 5, Inception/NCS bar (E2)
     async-ablation             §5 async-forwarding ablation (E3)
     virt-technique-comparison  §2 design-space comparison (E4)
     sharing-policies           §4.3 rate limiting / WFQ / quotas (E5)
     migration                  §4.3 record/replay migration (E6)
     swapping                   §4.3 buffer-granularity swapping (E7)
     automation-metrics         §5 developer-effort metrics (E8)
     transport-sweep            pluggable-transport ablation
     pool-scaling               device-pool throughput + rebalancing
     cluster-scaling            multi-host fleet under trace-driven load
     simcore                    DES engine self-benchmark (events/s, allocs)
     microbench                 Bechamel microbenchmarks (E9)
*)

module Transport = Ava_transport.Transport
module Swap = Ava_remoting.Swap
module Json = Ava_obs.Json

open Ava_sim
open Ava_core
open Ava_workloads

let section title = Fmt.pr "@.=== %s ===@." title
let hr () = Fmt.pr "%s@." (String.make 78 '-')

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty json);
  close_out oc

(* Per-phase latency summaries of a profiled run, as the ["phases"]
   fragment of a BENCH file. *)
let profile_phases (p : Driver.profile) =
  Json.List
    (List.map
       (fun (name, s) ->
         match Ava_obs.Export.json_of_summary s with
         | Json.Obj fields -> Json.Obj (("phase", Json.String name) :: fields)
         | j -> j)
       p.Driver.pr_phases)

let profile_call_latency (p : Driver.profile) =
  match p.Driver.pr_call_latency with
  | Some s -> Ava_obs.Export.json_of_summary s
  | None -> Json.Null

(* ---------------------------------------------------------------- E1 -- *)

let fig5_opencl () =
  section "E1 | Figure 5 (OpenCL): Rodinia end-to-end relative runtime";
  Fmt.pr "paper: <= 1.16 max, ~1.08 average (AvA vs native GTX 1080)@.";
  hr ();
  (* Profile the remoted runs with obs armed: attribution is passive,
     so the relative runtimes are identical to the unobserved ones. *)
  let entries =
    List.map
      (fun (b : Rodinia.benchmark) ->
        let native = Driver.time_cl b.Rodinia.run in
        let prof = Driver.profile_cl ~obs:true b.Rodinia.run in
        let row =
          {
            Driver.row_name = b.Rodinia.name;
            native_ns = native;
            subject_ns = prof.Driver.pr_ns;
            relative =
              Driver.relative_runtime ~native ~subject:prof.Driver.pr_ns;
          }
        in
        (row, prof))
      Rodinia.all
  in
  let rows = List.map fst entries in
  List.iter (fun r -> Fmt.pr "%a@." Driver.pp_row r) rows;
  hr ();
  let max_rel =
    List.fold_left (fun acc r -> Float.max acc r.Driver.relative) 0.0 rows
  in
  Fmt.pr "mean relative runtime: %.3f   (paper ~1.08)@." (Driver.mean rows);
  Fmt.pr "max  relative runtime: %.3f   (paper <=1.16)@." max_rel;
  (* Zero-copy ablation: rerun the two large-buffer benchmarks with SVA
     and doorbell coalescing armed; the headline metric is the combined
     marshal+doorbell+transport p50, which the mapped-ref wire frames
     are supposed to collapse. *)
  hr ();
  let tm_phases = [ "marshal"; "doorbell"; "transport" ] in
  let transport_marshal_p50 (p : Driver.profile) =
    List.fold_left
      (fun acc (name, s) ->
        if List.mem name tm_phases then acc +. s.Ava_obs.Hist.h_p50_ns
        else acc)
      0.0 p.Driver.pr_phases
  in
  let sva_entries =
    List.filter_map
      (fun (b : Rodinia.benchmark) ->
        if not (List.mem b.Rodinia.name [ "gaussian"; "srad" ]) then None
        else
          let _, base =
            List.find
              (fun (r, _) -> r.Driver.row_name = b.Rodinia.name)
              entries
          in
          let sva =
            Driver.profile_cl ~obs:true ~sva:true
              ~doorbell:Transport.default_doorbell b.Rodinia.run
          in
          let base_p50 = transport_marshal_p50 base in
          let sva_p50 = transport_marshal_p50 sva in
          let reduction =
            if base_p50 > 0.0 then 1.0 -. (sva_p50 /. base_p50) else 0.0
          in
          Fmt.pr
            "%-12s transport+marshal p50: base=%.0fns sva=%.0fns (-%.1f%%)@."
            b.Rodinia.name base_p50 sva_p50 (100.0 *. reduction);
          Some
            (Json.Obj
               [
                 ("name", Json.String b.Rodinia.name);
                 ("sva_ns", Json.Int sva.Driver.pr_ns);
                 ("transport_marshal_p50_ns", Json.Float sva_p50);
                 ("base_transport_marshal_p50_ns", Json.Float base_p50);
                 ("reduction_pct", Json.Float (100.0 *. reduction));
                 ("wire_bytes", Json.Int sva.Driver.pr_wire_bytes);
                 ("phases", profile_phases sva);
               ]))
      Rodinia.all
  in
  let json =
    Json.Obj
      [
        ("experiment", Json.String "fig5-opencl");
        ( "rows",
          Json.List
            (List.map
               (fun (r, p) ->
                 Json.Obj
                   [
                     ("name", Json.String r.Driver.row_name);
                     ("native_ns", Json.Int r.Driver.native_ns);
                     ("remoted_ns", Json.Int r.Driver.subject_ns);
                     ("relative", Json.Float r.Driver.relative);
                     ("call_latency", profile_call_latency p);
                     ("phases", profile_phases p);
                   ])
               entries) );
        ("mean_relative", Json.Float (Driver.mean rows));
        ("max_relative", Json.Float max_rel);
        ("sva", Json.List sva_entries);
      ]
  in
  write_json "BENCH_fig5_opencl.json" json;
  Fmt.pr "wrote BENCH_fig5_opencl.json@."

(* ---------------------------------------------------------------- E2 -- *)

let fig5_ncs () =
  section "E2 | Figure 5 (NCS): Inception v3 relative runtime";
  Fmt.pr "paper: ~1.01 (AvA vs native Movidius stick)@.";
  hr ();
  let r = Driver.fig5_ncs () in
  Fmt.pr "%a@." Driver.pp_row r

(* ---------------------------------------------------------------- E3 -- *)

let async_ablation () =
  section "E3 | Async-forwarding ablation (Preliminary Results, par. 2)";
  Fmt.pr
    "paper: async spec gives 8.6%% speedup over unoptimized; ~5%% overhead \
     vs native@.";
  hr ();
  let entries =
    List.map
      (fun (b : Rodinia.benchmark) ->
        let native = Driver.time_cl b.Rodinia.run in
        let async_p = Driver.profile_cl ~obs:true b.Rodinia.run in
        let sync_p =
          Driver.profile_cl ~sync_only:true ~obs:true b.Rodinia.run
        in
        let row =
          {
            Driver.ab_name = b.Rodinia.name;
            ab_native_ns = native;
            ab_async_ns = async_p.Driver.pr_ns;
            ab_sync_ns = sync_p.Driver.pr_ns;
          }
        in
        (row, async_p, sync_p))
      Rodinia.all
  in
  let rows = List.map (fun (r, _, _) -> r) entries in
  List.iter (fun r -> Fmt.pr "%a@." Driver.pp_ablation_row r) rows;
  hr ();
  let speedup r =
    float_of_int (r.Driver.ab_sync_ns - r.Driver.ab_async_ns)
    /. float_of_int r.Driver.ab_sync_ns
  in
  let overhead r =
    float_of_int r.Driver.ab_async_ns /. float_of_int r.Driver.ab_native_ns
  in
  let mean_speedup = 100.0 *. Stats.mean (List.map speedup rows) in
  let mean_overhead =
    100.0 *. (Stats.mean (List.map overhead rows) -. 1.0)
  in
  Fmt.pr "mean speedup from async annotations: %.1f%%   (paper 8.6%%)@."
    mean_speedup;
  Fmt.pr "mean overhead of optimized spec:     %.1f%%   (paper ~5-8%%)@."
    mean_overhead;
  let json =
    Json.Obj
      [
        ("experiment", Json.String "async-ablation");
        ( "rows",
          Json.List
            (List.map
               (fun (r, async_p, sync_p) ->
                 Json.Obj
                   [
                     ("name", Json.String r.Driver.ab_name);
                     ("native_ns", Json.Int r.Driver.ab_native_ns);
                     ("async_ns", Json.Int r.Driver.ab_async_ns);
                     ("sync_ns", Json.Int r.Driver.ab_sync_ns);
                     ( "async_rel",
                       Json.Float
                         (float_of_int r.Driver.ab_async_ns
                         /. float_of_int r.Driver.ab_native_ns) );
                     ( "sync_rel",
                       Json.Float
                         (float_of_int r.Driver.ab_sync_ns
                         /. float_of_int r.Driver.ab_native_ns) );
                     ("speedup_pct", Json.Float (100.0 *. speedup r));
                     ("async_phases", profile_phases async_p);
                     ("sync_phases", profile_phases sync_p);
                   ])
               entries) );
        ("mean_speedup_pct", Json.Float mean_speedup);
        ("mean_overhead_pct", Json.Float mean_overhead);
      ]
  in
  write_json "BENCH_async.json" json;
  Fmt.pr "wrote BENCH_async.json@."

(* ---------------------------------------------------------------- E4 -- *)

(* Microworkloads exercising the extremes of the design space. *)
let micro_transfer (module CL : Ava_simcl.Api.S) =
  let s = Clutil.open_session (module CL) in
  let m = Clutil.buffer s (4 * 1024 * 1024) in
  for _ = 1 to 8 do
    Clutil.write ~blocking:true s m (Bytes.create (4 * 1024 * 1024));
    ignore (Clutil.read s m ~size:(4 * 1024 * 1024))
  done;
  Clutil.finish s

let micro_launch (module CL : Ava_simcl.Api.S) =
  let s = Clutil.open_session (module CL) in
  let kernels = Clutil.build_kernels s [ ("tiny", 1.0e5 /. 1024.0, 0.0) ] in
  let k = List.hd kernels in
  for _ = 1 to 500 do
    Clutil.launch s k ~global:1024 ~local:64
  done;
  Clutil.finish s

let micro_mixed (module CL : Ava_simcl.Api.S) =
  let s = Clutil.open_session (module CL) in
  let m = Clutil.buffer s (1024 * 1024) in
  let kernels = Clutil.build_kernels s [ ("work", 2.0e6 /. 65536.0, 0.0) ] in
  let k = List.hd kernels in
  Clutil.set_arg s k 0 (Ava_simcl.Types.Arg_mem m);
  for _ = 1 to 100 do
    Clutil.write s m (Bytes.create (256 * 1024));
    Clutil.launch s k ~global:65536 ~local:256;
    ignore (Clutil.read s m ~size:4096)
  done;
  Clutil.finish s

let virt_comparison () =
  section "E4 | Virtualization-technique comparison (Motivation)";
  Fmt.pr
    "paper: full virtualization loses orders of magnitude; pass-through is \
     native;@.       API remoting over interposable transport is the \
     practical middle.@.";
  hr ();
  Fmt.pr "%-16s %12s %12s %12s %12s %12s@." "workload" "native" "passthru"
    "full-virt" "ava" "user-rpc";
  let techniques =
    [
      None;
      Some Host.Passthrough;
      Some Host.Full_virt;
      Some (Host.Ava Transport.Shm_ring);
      Some Host.User_rpc;
    ]
  in
  List.iter
    (fun (name, program) ->
      let times =
        List.map (fun t -> Driver.time_cl ?technique:t program) techniques
      in
      match times with
      | [ native; pass; fv; ava; rpc ] ->
          let rel t = float_of_int t /. float_of_int native in
          Fmt.pr "%-16s %12s %11.2fx %11.2fx %11.2fx %11.2fx@." name
            (Time.to_string native) (rel pass) (rel fv) (rel ava) (rel rpc)
      | _ -> assert false)
    [
      ("transfer-heavy", micro_transfer);
      ("launch-heavy", micro_launch);
      ("mixed", micro_mixed);
    ]

(* ---------------------------------------------------------------- E5 -- *)

let run_contending_guests ?(kernel_flops = 2.0e9) host specs =
  let e = host.Host.engine in
  let finished = Hashtbl.create 8 in
  List.iter
    (fun (guest, name) ->
      Engine.spawn e (fun () ->
          let module CL = (val guest.Host.g_api) in
          let s = Clutil.open_session (module CL) in
          let kernels =
            Clutil.build_kernels s [ ("spin", kernel_flops /. 65536.0, 0.0) ]
          in
          let k = List.hd kernels in
          for _ = 1 to 60 do
            Clutil.launch s k ~global:65536 ~local:256
          done;
          Clutil.finish s;
          Hashtbl.replace finished name (Engine.now e)))
    specs;
  Engine.run e;
  finished

let sharing_policies () =
  section "E5 | Router policies: rate limiting, WFQ shares, quotas (§4.3)";
  hr ();
  (* (a) WFQ weights. *)
  let e = Engine.create () in
  let host = Host.create_cl_host e in
  let mk w name = (Host.add_cl_vm host ~weight:w ~name, name) in
  let guests = [ mk 8.0 "w8"; mk 4.0 "w4"; mk 2.0 "w2"; mk 1.0 "w1" ] in
  let finished = run_contending_guests host guests in
  Fmt.pr "WFQ: 4 VMs, equal demand, weights 8:4:2:1 — completion times:@.";
  List.iter
    (fun (_, name) ->
      Fmt.pr "  %-4s finished at %s@." name
        (Time.to_string (Hashtbl.find finished name)))
    guests;
  (* (b) rate limit. *)
  let e = Engine.create () in
  let host = Host.create_cl_host e in
  let fast = (Host.add_cl_vm host ~name:"unlimited", "unlimited") in
  let slow =
    (Host.add_cl_vm host ~rate_per_s:2000.0 ~name:"limited", "limited")
  in
  let finished =
    run_contending_guests ~kernel_flops:2.0e7 host [ fast; slow ]
  in
  Fmt.pr "Rate limit: 2 VMs, one capped at 2000 calls/s:@.";
  List.iter
    (fun (_, name) ->
      Fmt.pr "  %-10s finished at %s@." name
        (Time.to_string (Hashtbl.find finished name)))
    [ fast; slow ];
  (* (c) device-time quota. *)
  let e = Engine.create () in
  let host = Host.create_cl_host e in
  let free = (Host.add_cl_vm host ~name:"no-quota", "no-quota") in
  let capped =
    ( Host.add_cl_vm host ~quota_cost:500_000.0 ~quota_window:(Time.ms 10)
        ~name:"quota",
      "quota" )
  in
  let finished =
    run_contending_guests ~kernel_flops:2.0e7 host [ free; capped ]
  in
  Fmt.pr "Quota: 2 VMs, one budgeted per 10ms window:@.";
  List.iter
    (fun (_, name) ->
      Fmt.pr "  %-10s finished at %s@." name
        (Time.to_string (Hashtbl.find finished name)))
    [ free; capped ]

(* ---------------------------------------------------------------- E6 -- *)

let migration_bench () =
  section "E6 | VM migration by record/replay (§4.3)";
  Fmt.pr "guest on dev0 of a two-device pool, live-migrated to dev1@.";
  hr ();
  Fmt.pr "%-10s %-12s %-10s %-10s %-12s@." "buffers" "state" "pause"
    "replayed" "copied";
  List.iter
    (fun n_buffers ->
      let e = Engine.create () in
      let result = ref None in
      Engine.spawn e (fun () ->
          let host = Host.create_cl_host ~devices:2 e in
          let guest = Host.add_cl_vm host ~device:0 ~name:"g" in
          let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
          let module CL = (val guest.Host.g_api) in
          let s = Clutil.open_session (module CL) in
          let size = 2 * 1024 * 1024 in
          let bufs = List.init n_buffers (fun _ -> Clutil.buffer s size) in
          List.iter
            (fun m -> Clutil.write ~blocking:true s m (Bytes.create size))
            bufs;
          Clutil.finish s;
          let started = Engine.now e in
          let copied = Host.Pool.migrate_vm host.Host.cl_pool ~vm_id ~dest:1 in
          let replayed =
            Host.Migrate.log_length (Option.get (Host.recorder host ~vm_id))
          in
          result := Some (Engine.now e - started, replayed, copied));
      Engine.run e;
      let pause, replayed, copied = Option.get !result in
      Fmt.pr "%-10d %-12s %-10s %-10d %-12s@." n_buffers
        (Printf.sprintf "%dMB" (n_buffers * 2))
        (Time.to_string pause) replayed
        (Printf.sprintf "%dMB" (copied / 1024 / 1024)))
    [ 1; 4; 16; 64 ]

(* ---------------------------------------------------------------- E7 -- *)

let swapping_bench () =
  section "E7 | Buffer-granularity memory swapping (§4.3)";
  Fmt.pr "workload: guest cycles over 8 x 4MiB buffers, 4 rounds@.";
  hr ();
  Fmt.pr "%-16s %-12s %-10s %-10s %-10s@." "device budget" "oversubscr."
    "time" "evictions" "restores";
  List.iter
    (fun budget_mib ->
      let e = Engine.create () in
      let done_at = ref 0 in
      let stats = ref (0, 0) in
      Engine.spawn e (fun () ->
          let host =
            Host.create_cl_host e ~swap_capacity:(budget_mib * 1024 * 1024)
          in
          let guest = Host.add_cl_vm host ~name:"g" in
          let module CL = (val guest.Host.g_api) in
          let s = Clutil.open_session (module CL) in
          let size = 4 * 1024 * 1024 in
          let bufs = List.init 8 (fun _ -> Clutil.buffer s size) in
          for _round = 1 to 4 do
            List.iter
              (fun m -> Clutil.write s m (Bytes.create 4096))
              bufs;
            Clutil.finish s
          done;
          let sw = host.Host.swaps.(0) in
          stats := (Swap.evictions sw, Swap.restores sw);
          done_at := Engine.now e);
      Engine.run e;
      let evictions, restores = !stats in
      Fmt.pr "%-16s %-12s %-10s %-10d %-10d@."
        (Printf.sprintf "%dMiB" budget_mib)
        (Printf.sprintf "%.1fx" (32.0 /. float_of_int budget_mib))
        (Time.to_string !done_at) evictions restores)
    [ 32; 16; 8 ]

(* ------------------------------------------- swap granularity ablation -- *)

let swap_granularity () =
  section "Ablation | Swap granularity: buffer objects vs 4KiB pages (§4.3)";
  Fmt.pr
    "paper: buffer-object granularity reduces overhead relative to page-      or chunk-based management@.";
  hr ();
  Fmt.pr "%-18s %-12s %-12s@." "granularity" "time" "evictions";
  let run page_granularity =
    let e = Engine.create () in
    let done_at = ref 0 and evictions = ref 0 in
    Engine.spawn e (fun () ->
        let host =
          Host.create_cl_host e
            ~swap_capacity:(12 * 1024 * 1024)
            ~swap_page_granularity:page_granularity
        in
        let guest = Host.add_cl_vm host ~name:"g" in
        let module CL = (val guest.Host.g_api) in
        let s = Clutil.open_session (module CL) in
        let size = 4 * 1024 * 1024 in
        let bufs = List.init 6 (fun _ -> Clutil.buffer s size) in
        for _round = 1 to 4 do
          List.iter (fun m -> Clutil.write s m (Bytes.create 4096)) bufs;
          Clutil.finish s
        done;
        evictions := Swap.evictions host.Host.swaps.(0);
        done_at := Engine.now e);
    Engine.run e;
    (!done_at, !evictions)
  in
  let t_buf, e_buf = run false in
  let t_page, e_page = run true in
  Fmt.pr "%-18s %-12s %-12d@." "buffer-object" (Time.to_string t_buf) e_buf;
  Fmt.pr "%-18s %-12s %-12d@." "4KiB pages" (Time.to_string t_page) e_page;
  Fmt.pr "buffer granularity is %.2fx faster under identical eviction           pressure@."
    (float_of_int t_page /. float_of_int t_buf)

(* ------------------------------------------------ batching ablation -- *)

let batching_ablation () =
  section "Ablation | rCUDA-style API batching (named in §4.2)";
  Fmt.pr
    "zero-device-work calls (clSetKernelArg, retains) piggyback on the next \
     device-work call@.";
  hr ();
  Fmt.pr "%-12s %11s %11s %8s %11s %11s %8s@." "benchmark" "shm-ring"
    "+batching" "gain" "network" "+batching" "gain";
  List.iter
    (fun name ->
      let b = Option.get (Rodinia.find name) in
      let native = Driver.time_cl b.Rodinia.run in
      let run tech batching =
        Driver.time_cl ~technique:tech ~batching b.Rodinia.run
      in
      let ring = run (Host.Ava Transport.Shm_ring) false in
      let ring_b = run (Host.Ava Transport.Shm_ring) true in
      let net = run (Host.Ava Transport.Network) false in
      let net_b = run (Host.Ava Transport.Network) true in
      let rel t = float_of_int t /. float_of_int native in
      let gain a b = 100.0 *. (float_of_int (a - b) /. float_of_int a) in
      Fmt.pr "%-12s %10.3fx %10.3fx %7.2f%% %10.3fx %10.3fx %7.2f%%@." name
        (rel ring) (rel ring_b) (gain ring ring_b) (rel net) (rel net_b)
        (gain net net_b))
    [ "gaussian"; "hotspot"; "pathfinder"; "nw"; "nn" ]

(* ------------------------------------------------ policy-overhead -- *)

let policy_overhead () =
  section "Ablation | Router policy fast-path overhead";
  Fmt.pr
    "non-binding policies (generous rate limit + quota) must cost ~nothing@.";
  hr ();
  Fmt.pr "%-12s %14s %14s %10s@." "benchmark" "no policies"
    "policies armed" "delta";
  List.iter
    (fun name ->
      let b = Option.get (Rodinia.find name) in
      let plain =
        Driver.time_cl ~technique:(Host.Ava Transport.Shm_ring) b.Rodinia.run
      in
      let armed =
        let e = Engine.create () in
        let finished = ref 0 in
        Engine.spawn e (fun () ->
            let host = Host.create_cl_host e in
            let guest =
              Host.add_cl_vm host ~rate_per_s:10_000_000.0
                ~quota_cost:1e12 ~quota_window:(Time.ms 100) ~name:"g"
            in
            b.Rodinia.run guest.Host.g_api;
            finished := Engine.now e);
        Engine.run e;
        !finished
      in
      Fmt.pr "%-12s %14s %14s %9.2f%%@." name (Time.to_string plain)
        (Time.to_string armed)
        (100.0 *. (float_of_int (armed - plain) /. float_of_int plain)))
    [ "bfs"; "nn"; "gaussian" ]

(* ---------------------------------------------------------------- E8 -- *)

let automation_metrics () =
  section "E8 | CAvA automation metrics (developer effort, §5)";
  Fmt.pr
    "paper: one developer, 39 OpenCL + 10 MVNC functions in days; manual \
     stacks take 25 kLoC / person-years@.";
  hr ();
  let simcl =
    Ava_codegen.Metrics.analyze ~header_source:Ava_spec.Specs.simcl_header
      ~spec_source:Ava_spec.Specs.simcl_spec
      (Ava_spec.Specs.load_simcl ())
  in
  Fmt.pr "%a@." Ava_codegen.Metrics.pp_report simcl;
  let mvnc =
    Ava_codegen.Metrics.analyze ~header_source:Ava_spec.Specs.mvnc_header
      ~spec_source:Ava_spec.Specs.mvnc_spec
      (Ava_spec.Specs.load_mvnc ())
  in
  Fmt.pr "%a@." Ava_codegen.Metrics.pp_report mvnc;
  let qat =
    Ava_codegen.Metrics.analyze ~header_source:Ava_spec.Specs.qat_header
      ~spec_source:Ava_spec.Specs.qat_spec
      (Ava_spec.Specs.load_qat ())
  in
  Fmt.pr "%a@." Ava_codegen.Metrics.pp_report qat;
  let simst =
    Ava_codegen.Metrics.analyze ~header_source:Ava_spec.Specs.simst_header
      ~spec_source:Ava_spec.Specs.simst_spec
      (Ava_spec.Specs.load_simst ())
  in
  Fmt.pr "%a@." Ava_codegen.Metrics.pp_report simst

(* ------------------------------------------------ consolidation scaling -- *)

let consolidation () =
  section "Extension | Consolidation scaling: N tenants on one GPU";
  Fmt.pr
    "the paper's motivation: pass-through dedicates the device; AvA \
     multiplexes it@.";
  hr ();
  Fmt.pr "%-8s %14s %14s %16s@." "tenants" "makespan" "per-VM slowdown"
    "GPU utilization";
  let solo = ref 0 in
  List.iter
    (fun n ->
      let e = Engine.create () in
      let host = Host.create_cl_host e in
      let finished = ref [] in
      for idx = 1 to n do
        let guest =
          Host.add_cl_vm host ~name:(Printf.sprintf "vm%d" idx)
        in
        Engine.spawn e (fun () ->
            let module CL = (val guest.Host.g_api) in
            let s = Clutil.open_session (module CL) in
            let kernels =
              Clutil.build_kernels s [ ("work", 1.5e9 /. 65536.0, 0.0) ]
            in
            let k = List.hd kernels in
            for _ = 1 to 30 do
              Clutil.launch s k ~global:65536 ~local:256
            done;
            Clutil.finish s;
            finished := Engine.now e :: !finished)
      done;
      Engine.run e;
      let makespan = List.fold_left Stdlib.max 0 !finished in
      if n = 1 then solo := makespan;
      let busy = Ava_device.Gpu.busy_ns host.Host.gpu in
      Fmt.pr "%-8d %14s %13.2fx %15.1f%%@." n (Time.to_string makespan)
        (float_of_int makespan /. float_of_int !solo)
        (100.0 *. float_of_int busy /. float_of_int makespan))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------ device pool scaling -- *)

(* Multi-device pool: aggregate Rodinia throughput as the pool grows
   1 -> 2 -> 4 devices under eight concurrent tenants, plus the
   skewed-tenant rebalancing gain.  The devices=1 row carries a
   [relative] against the default host (no pool arguments at all): the
   explicit one-device round-robin pool must be the same stack. *)

let pool_tenants = 8
let pool_tenant_benches = [| "bfs"; "nn"; "srad"; "backprop" |]

(* Eight tenants, two of each Rodinia workload, racing on one host.
   Returns (makespan, per-device stats, migrations). *)
let pool_run ?devices ?placement () =
  let e = Engine.create () in
  let host = Host.create_cl_host ?devices ?placement e in
  let done_at = Array.make pool_tenants 0 in
  for i = 0 to pool_tenants - 1 do
    let name =
      pool_tenant_benches.(i mod Array.length pool_tenant_benches)
    in
    let b = Option.get (Rodinia.find name) in
    let guest =
      Host.add_cl_vm host ~name:(Printf.sprintf "%s%d" name i)
    in
    Engine.spawn e (fun () ->
        b.Rodinia.run guest.Host.g_api;
        done_at.(i) <- Engine.now e)
  done;
  Engine.run e;
  let makespan = Array.fold_left Stdlib.max 0 done_at in
  let pool = host.Host.cl_pool in
  (makespan, Host.Pool.stats pool, Host.Pool.migrations pool)

(* Three identical tenants pinned to dev0 of a two-device pool: the
   static run leaves dev1 idle; the skew monitor must move load over. *)
let pool_skew_run ?rebalance () =
  let e = Engine.create () in
  let host = Host.create_cl_host ~devices:2 ?rebalance e in
  let pool = host.Host.cl_pool in
  let done_at = Array.make 3 0 in
  for i = 0 to 2 do
    let guest =
      Host.add_cl_vm host ~device:0 ~name:(Printf.sprintf "heavy%d" i)
    in
    Engine.spawn e (fun () ->
        (Option.get (Rodinia.find "bfs")).Rodinia.run guest.Host.g_api;
        done_at.(i) <- Engine.now e)
  done;
  if rebalance <> None then
    Engine.spawn e (fun () ->
        let rec wait () =
          if Array.exists (fun t -> t = 0) done_at then begin
            Engine.delay (Time.us 100);
            wait ()
          end
          else Host.Pool.stop pool
        in
        wait ());
  Engine.run e;
  (Array.fold_left Stdlib.max 0 done_at, Host.Pool.rebalances pool)

(* ------------------------------------ heterogeneous (mixed) fleet -- *)

(* Mixed GPU-class/NPU-class fleet behind one SimST host: stream
   tenants pipeline vadd rounds, NPU tenants push scoring batches, and
   capability-aware placement must keep each class on its own devices.
   The gate: each class's makespan on the mixed fleet, relative to the
   same tenants running alone on a homogeneous fleet of the same
   devices, must stay ~1.0 — co-tenancy of the other capability is
   free when placement respects the tags. *)

let st_ok = function
  | Ok v -> v
  | Error _ -> failwith "simst bench call failed"

let st_vadd_tenant (module A : Ava_simst.Api.S) ~rounds ~n =
  let s = st_ok (A.stStreamCreate ()) in
  let a = st_ok (A.stMemAlloc ~size:(4 * n)) in
  let bm = st_ok (A.stMemAlloc ~size:(4 * n)) in
  let out = st_ok (A.stMemAlloc ~size:(4 * n)) in
  let buf_a = Bytes.create (4 * n) and buf_b = Bytes.create (4 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int32_le buf_a (4 * i) (Int32.of_int i);
    Bytes.set_int32_le buf_b (4 * i) (Int32.of_int (2 * i))
  done;
  for _ = 1 to rounds do
    st_ok (A.stMemcpyHtoDAsync a ~src:buf_a s);
    st_ok (A.stMemcpyHtoDAsync bm ~src:buf_b s);
    st_ok (A.stLaunchKernel s ~name:"vadd" ~a ~b:bm ~out ~n);
    let res = st_ok (A.stMemcpyDtoH ~size:(4 * n) out) in
    if Bytes.get_int32_le res 4 <> 3l then failwith "vadd mismatch"
  done;
  st_ok (A.stStreamSynchronize s);
  st_ok (A.stMemFree a);
  st_ok (A.stMemFree bm);
  st_ok (A.stMemFree out);
  st_ok (A.stStreamDestroy s)

let st_batch_tenant (module A : Ava_simst.Api.S) ~rounds ~items ~item_size =
  let s = st_ok (A.stStreamCreate ()) in
  let batch =
    Bytes.init (items * item_size) (fun i -> Char.chr (i land 0x3f))
  in
  let expect = Ava_simst.Device.batch_scores ~batch ~item_size in
  for _ = 1 to rounds do
    let ticket = st_ok (A.stBatchSubmit s ~batch ~item_size) in
    let scores = st_ok (A.stBatchCollect s ~ticket ~size:(4 * items)) in
    if not (Bytes.equal scores expect) then failwith "batch score mismatch"
  done;
  st_ok (A.stStreamDestroy s)

(* One tenant class: [count] VMs pinned to [cap], each running [work]. *)
type st_class = {
  stc_cap : Host.Pool.capability;
  stc_count : int;
  stc_work : (module Ava_simst.Api.S) -> unit;
}

let st_stream_class =
  {
    stc_cap = Host.Pool.Cap_stream;
    stc_count = 4;
    stc_work = (fun api -> st_vadd_tenant api ~rounds:6 ~n:256);
  }

let st_npu_class =
  {
    stc_cap = Host.Pool.Cap_npu;
    stc_count = 4;
    stc_work = (fun api -> st_batch_tenant api ~rounds:6 ~items:32 ~item_size:64);
  }

(* Run the given classes together on [fleet]; per-class makespan. *)
let st_fleet_run ~fleet classes =
  let e = Engine.create () in
  let host =
    Host.create_st_host ~fleet ~placement:Host.Pool.Round_robin e
  in
  let finished =
    List.map (fun c -> (c, Array.make c.stc_count 0)) classes
  in
  List.iter
    (fun (c, done_at) ->
      let cap = Host.Pool.capability_to_string c.stc_cap in
      for i = 0 to c.stc_count - 1 do
        let guest =
          Host.add_st_vm host ~requires:c.stc_cap
            ~name:(Printf.sprintf "%s%d" cap i)
        in
        Engine.spawn e (fun () ->
            c.stc_work guest.Host.sg_api;
            done_at.(i) <- Engine.now e)
      done)
    finished;
  Engine.run e;
  List.map
    (fun (c, done_at) -> (c, Array.fold_left Stdlib.max 0 done_at))
    finished

(* A compute-bound tenant that enqueues in rounds (burst of kernels,
   then a sync) so a mid-run migration actually offloads future rounds:
   work enqueued in one big burst would all be drained at the source by
   the migration quiesce. *)
let st_heavy_tenant (module A : Ava_simst.Api.S) ~rounds ~burst ~n =
  let s = st_ok (A.stStreamCreate ()) in
  let a = st_ok (A.stMemAlloc ~size:(4 * n)) in
  let bm = st_ok (A.stMemAlloc ~size:(4 * n)) in
  let out = st_ok (A.stMemAlloc ~size:(4 * n)) in
  let buf = Bytes.make (4 * n) '\001' in
  st_ok (A.stMemcpyHtoDAsync a ~src:buf s);
  st_ok (A.stMemcpyHtoDAsync bm ~src:buf s);
  for _ = 1 to rounds do
    for _ = 1 to burst do
      st_ok (A.stLaunchKernel s ~name:"vadd" ~a ~b:bm ~out ~n)
    done;
    st_ok (A.stStreamSynchronize s)
  done;
  st_ok (A.stMemFree a);
  st_ok (A.stMemFree bm);
  st_ok (A.stMemFree out);
  st_ok (A.stStreamDestroy s)

(* Same-type-only rebalancing: three stream tenants pinned to dev0 of
   a [stream; stream; npu] fleet.  The skew monitor may move them
   between the two stream devices but must never migrate one onto the
   NPU. *)
let st_skew_run ?rebalance () =
  let e = Engine.create () in
  let host =
    Host.create_st_host
      ~fleet:[ Host.Pool.Cap_stream; Host.Pool.Cap_stream; Host.Pool.Cap_npu ]
      ~placement:Host.Pool.Round_robin ?rebalance e
  in
  let pool = host.Host.st_pool in
  let done_at = Array.make 3 0 in
  for i = 0 to 2 do
    let guest =
      Host.add_st_vm host ~requires:Host.Pool.Cap_stream ~device:0
        ~name:(Printf.sprintf "st-heavy%d" i)
    in
    Engine.spawn e (fun () ->
        st_heavy_tenant guest.Host.sg_api ~rounds:24 ~burst:8 ~n:262144;
        done_at.(i) <- Engine.now e)
  done;
  if rebalance <> None then
    Engine.spawn e (fun () ->
        let rec wait () =
          if Array.exists (fun t -> t = 0) done_at then begin
            Engine.delay (Time.us 100);
            wait ()
          end
          else Host.Pool.stop pool
        in
        wait ());
  Engine.run e;
  let npu_residents =
    List.fold_left
      (fun acc (d : Host.Pool.device_stats) ->
        if d.Host.Pool.ds_capability = Host.Pool.Cap_npu then
          acc + List.length d.Host.Pool.ds_resident
        else acc)
      0
      (Host.Pool.stats pool)
  in
  ( Array.fold_left Stdlib.max 0 done_at,
    Host.Pool.migrations pool,
    npu_residents )

let pool_scaling () =
  section "Extension | Device pool: throughput scaling and rebalancing";
  Fmt.pr
    "%d tenants (2x each of %s) on round-robin placement@." pool_tenants
    (String.concat ", " (Array.to_list pool_tenant_benches));
  hr ();
  let default_host, _, _ = pool_run () in
  let throughput ns =
    float_of_int pool_tenants /. (float_of_int ns *. 1e-9)
  in
  Fmt.pr "default host (1 device):     makespan %s  (%.0f jobs/s)@."
    (Time.to_string default_host) (throughput default_host);
  let rows =
    List.map
      (fun n ->
        let makespan, stats, migrations =
          pool_run ~devices:n ~placement:Host.Pool.Round_robin ()
        in
        (n, makespan, stats, migrations))
      [ 1; 2; 4 ]
  in
  let base1 =
    match rows with (_, m, _, _) :: _ -> m | [] -> default_host
  in
  Fmt.pr "%-8s %14s %10s %10s %11s@." "devices" "makespan" "jobs/s"
    "speedup" "migrations";
  List.iter
    (fun (n, makespan, stats, migrations) ->
      Fmt.pr "%-8d %14s %10.0f %9.2fx %11d@." n (Time.to_string makespan)
        (throughput makespan)
        (float_of_int base1 /. float_of_int makespan)
        migrations;
      List.iter
        (fun (d : Host.Pool.device_stats) ->
          Fmt.pr "         dev%d: %d vms, %d kernels, busy %s@."
            d.Host.Pool.ds_id
            (List.length d.Host.Pool.ds_resident)
            d.Host.Pool.ds_kernels
            (Time.to_string d.Host.Pool.ds_busy_ns))
        stats)
    rows;
  hr ();
  let t_static, _ = pool_skew_run () in
  let t_rebal, moves =
    pool_skew_run
      ~rebalance:{ Host.Pool.rb_interval = Time.us 500; rb_skew = 1.5 }
      ()
  in
  Fmt.pr "skewed tenants (3 pinned to dev0 of 2): static %s, rebalanced \
          %s (%d migrations, %.2fx gain)@."
    (Time.to_string t_static) (Time.to_string t_rebal) moves
    (float_of_int t_static /. float_of_int t_rebal);
  hr ();
  Fmt.pr "mixed fleet (SimST host, 2 stream + 2 npu devices, 4+4 tenants)@.";
  let mixed =
    st_fleet_run
      ~fleet:
        [
          Host.Pool.Cap_stream;
          Host.Pool.Cap_stream;
          Host.Pool.Cap_npu;
          Host.Pool.Cap_npu;
        ]
      [ st_stream_class; st_npu_class ]
  in
  let solo c =
    match st_fleet_run ~fleet:[ c.stc_cap; c.stc_cap ] [ c ] with
    | [ (_, m) ] -> m
    | _ -> assert false
  in
  let class_rows =
    List.map
      (fun (c, mixed_ns) ->
        let solo_ns = solo c in
        let rel = float_of_int mixed_ns /. float_of_int solo_ns in
        let cap = Host.Pool.capability_to_string c.stc_cap in
        Fmt.pr
          "%-8s %d tenants: solo %s, mixed %s (relative %.3f)@." cap
          c.stc_count (Time.to_string solo_ns) (Time.to_string mixed_ns)
          rel;
        (cap, c.stc_count, solo_ns, mixed_ns, rel))
      mixed
  in
  let st_static, _, _ = st_skew_run () in
  let st_rebal, st_moves, st_npu_res =
    st_skew_run
      ~rebalance:{ Host.Pool.rb_interval = Time.us 500; rb_skew = 1.5 }
      ()
  in
  if st_npu_res <> 0 then
    failwith "mixed-fleet rebalancer parked a stream tenant on the NPU";
  Fmt.pr
    "same-type skew (3 stream tenants on dev0 of stream,stream,npu): \
     static %s, rebalanced %s (%d migrations, npu residents %d)@."
    (Time.to_string st_static) (Time.to_string st_rebal) st_moves
    st_npu_res;
  let row_json (n, makespan, stats, migrations) =
    let gated =
      (* Only the one-device configuration has a default host to
         match: its [relative] must read exactly 1.0. *)
      if n = 1 then
        [
          ( "relative",
            Json.Float (float_of_int makespan /. float_of_int default_host) );
        ]
      else []
    in
    Json.Obj
      ([
         ("devices", Json.Int n);
         ("makespan_ns", Json.Int makespan);
         ("throughput_jobs_per_s", Json.Float (throughput makespan));
         ( "speedup",
           Json.Float (float_of_int base1 /. float_of_int makespan) );
         ("migrations", Json.Int migrations);
         ( "per_device",
           Json.List
             (List.map
                (fun (d : Host.Pool.device_stats) ->
                  Json.Obj
                    [
                      ("id", Json.Int d.Host.Pool.ds_id);
                      ( "residents",
                        Json.Int (List.length d.Host.Pool.ds_resident) );
                      ("kernels", Json.Int d.Host.Pool.ds_kernels);
                      ("busy_ns", Json.Int d.Host.Pool.ds_busy_ns);
                    ])
                stats) );
       ]
      @ gated)
  in
  let json =
    Json.Obj
      [
        ("experiment", Json.String "pool-scaling");
        ("tenants", Json.Int pool_tenants);
        ("classic_makespan_ns", Json.Int default_host);
        ("rows", Json.List (List.map row_json rows));
        ( "rebalance",
          Json.Obj
            [
              ("static_makespan_ns", Json.Int t_static);
              ("rebalanced_makespan_ns", Json.Int t_rebal);
              ("migrations", Json.Int moves);
              ( "gain",
                Json.Float
                  (float_of_int t_static /. float_of_int t_rebal) );
            ] );
        (* Heterogeneous rows come last so every pre-existing path in
           this document stays bit-identical to the homogeneous-only
           bench. *)
        ( "mixed_fleet",
          Json.Obj
            [
              ("fleet", Json.String "stream,stream,npu,npu");
              ( "classes",
                Json.List
                  (List.map
                     (fun (cap, tenants, solo_ns, mixed_ns, rel) ->
                       Json.Obj
                         [
                           ("capability", Json.String cap);
                           ("tenants", Json.Int tenants);
                           ("solo_makespan_ns", Json.Int solo_ns);
                           ("mixed_makespan_ns", Json.Int mixed_ns);
                           ("relative", Json.Float rel);
                         ])
                     class_rows) );
              ( "skew",
                Json.Obj
                  [
                    ("fleet", Json.String "stream,stream,npu");
                    ("static_makespan_ns", Json.Int st_static);
                    ("rebalanced_makespan_ns", Json.Int st_rebal);
                    ("migrations", Json.Int st_moves);
                    ("npu_residents", Json.Int st_npu_res);
                    ( "gain",
                      Json.Float
                        (float_of_int st_static /. float_of_int st_rebal) );
                  ] );
            ] );
      ]
  in
  write_json "BENCH_pool.json" json;
  Fmt.pr "wrote BENCH_pool.json@."

(* --------------------------------------------------- cluster scaling -- *)

module Cluster = Ava_cluster.Cluster
module Tracegen = Ava_cluster.Tracegen

(* Heavier than [Tracegen.default]: enough tenant overlap that one
   2-device host queues and the fleet has something to absorb. *)
let cluster_trace_cfg =
  {
    Tracegen.default with
    Tracegen.tg_tenants = 32;
    tg_mean_interarrival_ns = Time.us 10;
    tg_sessions_mean = 4.0;
    tg_think_mean_ns = Time.us 20;
    tg_session_xm = 4.0;
    tg_work_cap = 64;
  }

(* The identity baseline: the very same per-tenant schedule driven
   straight at a bare pooled host, no cluster layer anywhere.  A
   single-host cluster must match this makespan bit-for-bit. *)
let cluster_bare_run events =
  let e = Engine.create () in
  let host =
    Host.create_cl_host ~devices:2 ~placement:Host.Pool.Least_loaded e
  in
  let groups = Hashtbl.create 64 in
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
  let done_at = Hashtbl.create 64 in
  let until at =
    let now = Engine.now e in
    if at > now then Engine.delay (at - now)
  in
  List.iter
    (fun id ->
      let evs = List.rev (Hashtbl.find groups id) in
      Engine.spawn e (fun () ->
          let api = ref None and vm = ref 0 in
          List.iter
            (fun ev ->
              match ev with
              | Tracegen.Arrive { at; _ } ->
                  until at;
                  let g =
                    Host.add_cl_vm host
                      ~name:(Printf.sprintf "trace-t%d" id)
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

let cluster_run ?policy ~hosts events =
  let e = Engine.create () in
  let obs = Ava_obs.Obs.create () in
  let c = Cluster.create ?policy ~devices_per_host:2 ~obs ~hosts e in
  let r = Cluster.run_trace c events in
  (r, c)

(* Fleet-level skew demo: every tenant carries the same affinity key,
   so locality-aware admission piles them onto one of two hosts; the
   cluster rebalancer then live-migrates across hosts. *)
let cluster_skew_run ~rebalance () =
  let skew_tenants = 6 in
  let e = Engine.create () in
  let c =
    Cluster.create ~policy:Cluster.Affinity ~devices_per_host:2 ~hosts:2 e
  in
  let tenants =
    List.init skew_tenants (fun i ->
        Cluster.admit ~affinity:"hotspot" c
          ~name:(Printf.sprintf "skew-%d" i))
  in
  let finished = ref 0 and last = ref 0 in
  List.iter
    (fun tn ->
      Engine.spawn e (fun () ->
          for _ = 1 to 4 do
            ignore (Cluster.run_session (Cluster.api tn) ~work:24)
          done;
          incr finished;
          last := Stdlib.max !last (Engine.now e)))
    tenants;
  if rebalance then Cluster.start_rebalancer ~interval:(Time.us 300) c;
  Engine.spawn e (fun () ->
      let rec wait () =
        if !finished < skew_tenants then begin
          Engine.delay (Time.us 100);
          wait ()
        end
        else Cluster.stop c
      in
      wait ());
  Engine.run e;
  (!last, Cluster.cross_migrations c)

let cluster_scaling () =
  section "Extension | Cluster tier: multi-host scaling under trace load";
  let cfg = cluster_trace_cfg in
  let events = Tracegen.generate cfg in
  Fmt.pr "trace: %s@." (Tracegen.describe cfg);
  Fmt.pr "       %d events, %d sessions, %d work units@."
    (List.length events)
    (Tracegen.total_sessions events)
    (Tracegen.total_work events);
  hr ();
  let bare = cluster_bare_run events in
  Fmt.pr "bare pooled host (no cluster layer): makespan %s@."
    (Time.to_string bare);
  let rows =
    List.map
      (fun hosts ->
        let r, c = cluster_run ~hosts events in
        (hosts, r, c))
      [ 1; 2; 4; 8 ]
  in
  let base1 =
    match rows with (_, r, _) :: _ -> r.Cluster.tr_makespan | [] -> bare
  in
  let throughput (r : Cluster.trace_result) =
    float_of_int r.Cluster.tr_sessions
    /. (float_of_int r.Cluster.tr_makespan *. 1e-9)
  in
  let utilization (r : Cluster.trace_result) c =
    let busy = ref 0 in
    for i = 0 to Cluster.n_hosts c - 1 do
      busy := !busy + Cluster.host_busy_ns c i
    done;
    float_of_int !busy
    /. (float_of_int r.Cluster.tr_makespan
       *. float_of_int (Cluster.total_devices c))
  in
  (* Per-tenant end-to-end latency spread: the median tenant's p50 and
     the worst tenant's p99, from the shared obs registry. *)
  let tenant_lat c =
    let sums = Cluster.tenant_summaries c in
    let p50s =
      List.sort compare
        (List.map (fun (_, s) -> s.Ava_obs.Hist.h_p50_ns) sums)
    in
    let p99 =
      List.fold_left
        (fun acc (_, s) -> Float.max acc s.Ava_obs.Hist.h_p99_ns)
        0.0 sums
    in
    ((match p50s with
     | [] -> 0.0
     | l -> List.nth l (List.length l / 2)),
      p99)
  in
  Fmt.pr "%-6s %14s %12s %9s %7s %6s %12s@." "hosts" "makespan"
    "sessions/s" "speedup" "util" "fail" "worst p99";
  List.iter
    (fun (hosts, (r : Cluster.trace_result), c) ->
      let _, p99 = tenant_lat c in
      Fmt.pr "%-6d %14s %12.0f %8.2fx %6.1f%% %6d %12.1f@." hosts
        (Time.to_string r.Cluster.tr_makespan)
        (throughput r)
        (float_of_int base1 /. float_of_int r.Cluster.tr_makespan)
        (100.0 *. utilization r c)
        r.Cluster.tr_failures p99)
    rows;
  hr ();
  (* Gossip admission at 4 hosts: same trace, stale load views. *)
  let gossip_policy =
    Cluster.Gossip { g_fanout = 2; g_interval_ns = Time.us 200 }
  in
  let gr, gc = cluster_run ~policy:gossip_policy ~hosts:4 events in
  let global4 =
    match List.find_opt (fun (h, _, _) -> h = 4) rows with
    | Some (_, r, _) -> r.Cluster.tr_makespan
    | None -> base1
  in
  Fmt.pr "gossip admission (4 hosts, fanout 2, 200us): makespan %s vs \
          global %s (%.2fx)@."
    (Time.to_string gr.Cluster.tr_makespan)
    (Time.to_string global4)
    (float_of_int gr.Cluster.tr_makespan /. float_of_int global4);
  (* Cross-host rebalancing of a deliberately skewed fleet. *)
  let t_static, _ = cluster_skew_run ~rebalance:false () in
  let t_rebal, moves = cluster_skew_run ~rebalance:true () in
  Fmt.pr "affinity hotspot (6 tenants on 1 of 2 hosts): static %s, \
          rebalanced %s (%d cross-host migrations, %.2fx gain)@."
    (Time.to_string t_static) (Time.to_string t_rebal) moves
    (float_of_int t_static /. float_of_int t_rebal);
  let row_json (hosts, (r : Cluster.trace_result), c) =
    let p50, p99 = tenant_lat c in
    let gated =
      (* hosts:1 is the identity configuration: the cluster layer on
         top of one pooled host must cost exactly nothing. *)
      if hosts = 1 then
        [
          ( "relative",
            Json.Float
              (float_of_int r.Cluster.tr_makespan /. float_of_int bare) );
        ]
      else []
    in
    Json.Obj
      ([
         ("hosts", Json.Int hosts);
         ("makespan_ns", Json.Int r.Cluster.tr_makespan);
         ("sessions", Json.Int r.Cluster.tr_sessions);
         ("failures", Json.Int r.Cluster.tr_failures);
         ("retired", Json.Int r.Cluster.tr_retired);
         ("throughput_sessions_per_s", Json.Float (throughput r));
         ( "speedup",
           Json.Float
             (float_of_int base1 /. float_of_int r.Cluster.tr_makespan) );
         ("utilization", Json.Float (utilization r c));
         ( "tenant_latency",
           Json.Obj
             [ ("p50_ns", Json.Float p50); ("p99_ns", Json.Float p99) ] );
       ]
      @ gated)
  in
  let json =
    Json.Obj
      [
        ("experiment", Json.String "cluster-scaling");
        ( "trace",
          Json.Obj
            [
              ("config", Json.String (Tracegen.describe cfg));
              ("events", Json.Int (List.length events));
              ("sessions", Json.Int (Tracegen.total_sessions events));
              ("work_units", Json.Int (Tracegen.total_work events));
            ] );
        ("bare_makespan_ns", Json.Int bare);
        ("rows", Json.List (List.map row_json rows));
        ( "gossip_vs_global",
          Json.Obj
            [
              ("hosts", Json.Int 4);
              ("gossip_makespan_ns", Json.Int gr.Cluster.tr_makespan);
              ("global_makespan_ns", Json.Int global4);
              ( "slowdown",
                Json.Float
                  (float_of_int gr.Cluster.tr_makespan
                  /. float_of_int global4) );
              ("failures", Json.Int gr.Cluster.tr_failures);
              ("admissions", Json.Int (Cluster.admissions gc));
            ] );
        ( "rebalance",
          Json.Obj
            [
              ("static_makespan_ns", Json.Int t_static);
              ("rebalanced_makespan_ns", Json.Int t_rebal);
              ("cross_migrations", Json.Int moves);
              ( "gain",
                Json.Float
                  (float_of_int t_static /. float_of_int t_rebal) );
            ] );
      ]
  in
  write_json "BENCH_cluster.json" json;
  Fmt.pr "wrote BENCH_cluster.json@."

(* ------------------------------------------------- transport ablation -- *)

let transport_sweep () =
  section "Ablation | Pluggable transports (incl. disaggregation)";
  hr ();
  Fmt.pr "%-12s %12s %12s %12s %12s@." "benchmark" "native" "shm-ring"
    "network" "user-rpc";
  List.iter
    (fun name ->
      let b = Option.get (Rodinia.find name) in
      let native = Driver.time_cl b.Rodinia.run in
      let shm =
        Driver.time_cl ~technique:(Host.Ava Transport.Shm_ring) b.Rodinia.run
      in
      let net =
        Driver.time_cl ~technique:(Host.Ava Transport.Network) b.Rodinia.run
      in
      let rpc = Driver.time_cl ~technique:Host.User_rpc b.Rodinia.run in
      let rel t = float_of_int t /. float_of_int native in
      Fmt.pr "%-12s %12s %11.2fx %11.2fx %11.2fx@." name
        (Time.to_string native) (rel shm) (rel net) (rel rpc))
    [ "bfs"; "nn"; "srad" ]

(* ------------------------------------------------- transfer cache ---- *)

(* Content-addressed transfer cache: per workload, native vs. remoted
   (cache off) vs. remoted (cache on), with wire bytes and store
   counters.  Results also land in BENCH_remoting.json so the perf
   trajectory is machine-readable. *)

type cache_row = {
  cr_name : string;
  cr_native_ns : int;
  cr_remoted_ns : int;
  cr_cached_ns : int;
  cr_wire_bytes : int;
  cr_wire_bytes_cached : int;
  cr_hits : int;
  cr_misses : int;
  cr_saved_bytes : int;
  cr_evictions : int;
  cr_phases : Json.t;  (** attribution of the uncached remoted run *)
}

let cache_hit_rate r =
  let sightings = r.cr_hits + r.cr_misses in
  if sightings = 0 then 0.0
  else float_of_int r.cr_hits /. float_of_int sightings

let wire_reduction_pct r =
  if r.cr_wire_bytes = 0 then 0.0
  else
    100.0
    *. (1.0 -. (float_of_int r.cr_wire_bytes_cached /. float_of_int r.cr_wire_bytes))

let emit_bench_json ~capacity rows =
  let row_json r =
    Json.Obj
      [
        ("name", Json.String r.cr_name);
        ("native_ns", Json.Int r.cr_native_ns);
        ("remoted_ns", Json.Int r.cr_remoted_ns);
        ("cached_ns", Json.Int r.cr_cached_ns);
        ("wire_bytes", Json.Int r.cr_wire_bytes);
        ("wire_bytes_cached", Json.Int r.cr_wire_bytes_cached);
        ("wire_reduction_pct", Json.Float (wire_reduction_pct r));
        ("cache_hits", Json.Int r.cr_hits);
        ("cache_misses", Json.Int r.cr_misses);
        ("cache_hit_rate", Json.Float (cache_hit_rate r));
        ("cache_saved_bytes", Json.Int r.cr_saved_bytes);
        ("cache_evictions", Json.Int r.cr_evictions);
        ("phases", r.cr_phases);
      ]
  in
  write_json "BENCH_remoting.json"
    (Json.Obj
       [
         ("experiment", Json.String "remoting-cache");
         ("cache_capacity_bytes", Json.Int capacity);
         ("workloads", Json.List (List.map row_json rows));
       ])

let remoting_cache () =
  section "Extension | Content-addressed transfer cache (wire-byte dedup)";
  Fmt.pr
    "iterative deployment: each workload runs twice on one guest; the cache \
     turns repeated uploads into 13-byte refs@.";
  hr ();
  let cl_capacity = 64 * 1024 * 1024 in
  let nc_capacity = 128 * 1024 * 1024 in
  let twice run api =
    run api;
    run api
  in
  let cl_rows =
    List.map
      (fun (b : Rodinia.benchmark) ->
        let program = twice b.Rodinia.run in
        let native = Driver.time_cl program in
        let plain = Driver.profile_cl ~obs:true program in
        let cached = Driver.profile_cl ~transfer_cache:cl_capacity program in
        {
          cr_name = b.Rodinia.name;
          cr_native_ns = native;
          cr_remoted_ns = plain.Driver.pr_ns;
          cr_cached_ns = cached.Driver.pr_ns;
          cr_wire_bytes = plain.Driver.pr_wire_bytes;
          cr_wire_bytes_cached = cached.Driver.pr_wire_bytes;
          cr_hits = cached.Driver.pr_cache_hits;
          cr_misses = cached.Driver.pr_cache_misses;
          cr_saved_bytes = cached.Driver.pr_cache_saved_bytes;
          cr_evictions = cached.Driver.pr_cache_evictions;
          cr_phases = profile_phases plain;
        })
      Rodinia.all
  in
  (* Repeated Inception deployment: the 90 MB graph is re-sent on every
     guest restart; with the cache, the second upload is one ref. *)
  let inception_twice = twice (Inception.run ~inferences:4) in
  let nc_row =
    let native = Driver.time_nc inception_twice in
    let plain = Driver.profile_nc ~obs:true inception_twice in
    let cached = Driver.profile_nc ~transfer_cache:nc_capacity inception_twice in
    {
      cr_name = "inception-restart";
      cr_native_ns = native;
      cr_remoted_ns = plain.Driver.pr_ns;
      cr_cached_ns = cached.Driver.pr_ns;
      cr_wire_bytes = plain.Driver.pr_wire_bytes;
      cr_wire_bytes_cached = cached.Driver.pr_wire_bytes;
      cr_hits = cached.Driver.pr_cache_hits;
      cr_misses = cached.Driver.pr_cache_misses;
      cr_saved_bytes = cached.Driver.pr_cache_saved_bytes;
      cr_evictions = cached.Driver.pr_cache_evictions;
      cr_phases = profile_phases plain;
    }
  in
  let rows = cl_rows @ [ nc_row ] in
  Fmt.pr "%-18s %10s %10s %10s %12s %12s %7s %6s@." "workload" "native"
    "remoted" "cached" "wire-bytes" "cached" "redux" "hits";
  List.iter
    (fun r ->
      Fmt.pr "%-18s %10s %10s %10s %12d %12d %6.1f%% %6d@." r.cr_name
        (Time.to_string r.cr_native_ns)
        (Time.to_string r.cr_remoted_ns)
        (Time.to_string r.cr_cached_ns)
        r.cr_wire_bytes r.cr_wire_bytes_cached (wire_reduction_pct r)
        r.cr_hits)
    rows;
  hr ();
  let qualifying =
    List.filter (fun r -> wire_reduction_pct r >= 20.0) cl_rows
  in
  Fmt.pr "Rodinia workloads with >= 20%% wire-byte reduction: %d (%s)@."
    (List.length qualifying)
    (String.concat ", " (List.map (fun r -> r.cr_name) qualifying));
  Fmt.pr "inception-restart wire-byte reduction: %.1f%%@."
    (wire_reduction_pct nc_row);
  emit_bench_json ~capacity:cl_capacity rows;
  Fmt.pr "wrote BENCH_remoting.json@."

(* ------------------------------------------------ simulator core bench -- *)

(* Self-benchmark of the discrete-event core itself: wall-clock events/s,
   ns/event and allocated bytes/event (via [Gc.allocated_bytes]) on three
   microloads — pure timers (heap-only traffic), channel ping-pong
   (immediate handoff traffic) and a mixed Rodinia replay through the
   full remoting stack.  Virtual-time results of every load are
   deterministic; only the wall-clock and allocation columns vary by
   machine, which is why the CI gate for this experiment runs with a
   wide tolerance (allocations are near-exact; wall-clock is not). *)

(* Pre-refactor reference numbers for the pure-timer load, measured on
   the same machine immediately before the flat-heap/immediate-queue
   rework of lib/sim landed (entry-record heap, closure payloads,
   Option-allocating pop).  Kept so BENCH_simcore.json carries the
   speedup evidence for the refactor. *)
let prerefactor_pure_timer_ns_per_event = 285.3
let prerefactor_pure_timer_alloc_bytes_per_event = 192.0

let simcore_pure_timer () =
  let procs = 256 and iters = 4096 in
  let e = Engine.create () in
  for p = 0 to procs - 1 do
    Engine.spawn e (fun () ->
        for i = 1 to iters do
          Engine.delay (100 + ((p + i) mod 16))
        done)
  done;
  Engine.run e;
  Engine.events_executed e

let simcore_ping_pong () =
  let rounds = 200_000 in
  let e = Engine.create () in
  let req = Channel.create ~capacity:1 () in
  let resp = Channel.create ~capacity:1 () in
  Engine.spawn e (fun () ->
      for i = 1 to rounds do
        Channel.send req i;
        ignore (Channel.recv resp)
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to rounds do
        Channel.send resp (Channel.recv req)
      done);
  Engine.run e;
  Engine.events_executed e

let simcore_rodinia_replay () =
  let b = Option.get (Rodinia.find "bfs") in
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      let host = Host.create_cl_host e in
      let guest = Host.add_cl_vm host ~name:"replay" in
      b.Rodinia.run guest.Host.g_api);
  Engine.run e;
  Engine.events_executed e

(* Best-of-[reps] wall time; allocations from the same rep as the best
   wall time (they are identical across reps up to GC noise anyway). *)
let simcore_measure ?(reps = 3) f =
  let best = ref infinity and alloc = ref 0.0 and events = ref 0 in
  for _ = 1 to reps do
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let n = f () in
    let t1 = Unix.gettimeofday () in
    let a1 = Gc.allocated_bytes () in
    if t1 -. t0 < !best then begin
      best := t1 -. t0;
      alloc := a1 -. a0;
      events := n
    end
  done;
  (!events, !best, !alloc)

let simcore () =
  section "Simcore | DES hot-path self-benchmark (events/s, allocs/event)";
  Fmt.pr
    "wall-clock throughput of lib/sim itself; virtual-time outputs are \
     deterministic@.";
  hr ();
  Fmt.pr "%-16s %12s %12s %12s %14s@." "load" "events" "ns/event"
    "Mevents/s" "allocB/event";
  let loads =
    [
      ("pure-timer", simcore_pure_timer);
      ("channel-ping-pong", simcore_ping_pong);
      ("rodinia-replay", simcore_rodinia_replay);
    ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let events, wall_s, alloc_bytes = simcore_measure f in
        let ns_per_event = wall_s *. 1e9 /. float_of_int events in
        let events_per_s = float_of_int events /. wall_s in
        let alloc_per_event = alloc_bytes /. float_of_int events in
        Fmt.pr "%-16s %12d %12.1f %12.2f %14.1f@." name events ns_per_event
          (events_per_s /. 1e6) alloc_per_event;
        (name, events, ns_per_event, events_per_s, alloc_per_event))
      loads
  in
  hr ();
  let _, _, pt_ns, _, pt_alloc =
    List.find (fun (n, _, _, _, _) -> n = "pure-timer") rows
  in
  let speedup = prerefactor_pure_timer_ns_per_event /. pt_ns in
  let alloc_reduction =
    prerefactor_pure_timer_alloc_bytes_per_event /. pt_alloc
  in
  Fmt.pr
    "pure-timer vs pre-refactor core: %.2fx events/s, %.2fx fewer \
     alloc bytes/event@."
    speedup alloc_reduction;
  let json =
    Json.Obj
      [
        ("experiment", Json.String "simcore");
        ( "loads",
          Json.List
            (List.map
               (fun (name, events, ns_per_event, events_per_s, alloc_per_event)
                  ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("events", Json.Int events);
                     ("ns_per_event", Json.Float ns_per_event);
                     ("events_per_s", Json.Float events_per_s);
                     ("alloc_bytes_per_event", Json.Float alloc_per_event);
                   ])
               rows) );
        ( "prerefactor_pure_timer",
          Json.Obj
            [
              ( "ns_per_event",
                Json.Float prerefactor_pure_timer_ns_per_event );
              ( "alloc_bytes_per_event",
                Json.Float prerefactor_pure_timer_alloc_bytes_per_event );
            ] );
        ("pure_timer_speedup_vs_prerefactor", Json.Float speedup);
        ("pure_timer_alloc_reduction_vs_prerefactor", Json.Float alloc_reduction);
      ]
  in
  write_json "BENCH_simcore.json" json;
  Fmt.pr "wrote BENCH_simcore.json@."

(* ---------------------------------------------------------------- E9 -- *)

let microbench () =
  section "E9 | Bechamel microbenchmarks: remoting fast-path costs";
  let open Bechamel in
  let wire_values =
    [
      Ava_remoting.Wire.Str "clEnqueueWriteBuffer";
      Ava_remoting.Wire.int 42;
      Ava_remoting.Wire.Handle 4097L;
      Ava_remoting.Wire.Blob (Bytes.create 4096);
      Ava_remoting.Wire.List
        [ Ava_remoting.Wire.int 1; Ava_remoting.Wire.int 2 ];
    ]
  in
  let encoded = Ava_remoting.Wire.encode wire_values in
  (* The router's view of the same frame: headers and scalars only. *)
  let call_frame =
    Ava_remoting.Message.iovec ~copy:false
      (Ava_remoting.Message.Call
         {
           call_seq = 1;
           call_vm = 1;
           call_fn = "clEnqueueWriteBuffer";
           call_args = List.tl wire_values;
         })
  in
  (* The router's frame cursor, reused from read to read as ingress
     reuses it. *)
  let cursor = Ava_remoting.Message.cursor () in
  let spec = Ava_spec.Specs.load_simcl () in
  let plan = Result.get_ok (Ava_codegen.Plan.compile spec) in
  let read_plan =
    Option.get (Ava_codegen.Plan.find plan "clEnqueueReadBuffer")
  in
  let env = [ ("blocking_read", 1); ("offset", 0); ("size", 65536) ] in
  let tests =
    [
      Test.make ~name:"wire-encode"
        (Staged.stage (fun () -> ignore (Ava_remoting.Wire.encode wire_values)));
      Test.make ~name:"wire-decode"
        (Staged.stage (fun () -> ignore (Ava_remoting.Wire.decode encoded)));
      Test.make ~name:"wire-peek"
        (Staged.stage (fun () ->
             ignore (Ava_remoting.Message.read cursor call_frame)));
      Test.make ~name:"plan-sync-decision"
        (Staged.stage (fun () ->
             ignore (Ava_codegen.Plan.is_sync read_plan ~env)));
      Test.make ~name:"plan-payload-size"
        (Staged.stage (fun () ->
             ignore (Ava_codegen.Plan.request_bytes read_plan ~env)));
      Test.make ~name:"spec-parse-simcl"
        (Staged.stage (fun () -> ignore (Ava_spec.Specs.load_simcl ())));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) () in
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              instance raw
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Fmt.pr "  %-24s %10.1f ns/op@." name est
          | _ -> Fmt.pr "  %-24s (no estimate)@." name)
        results)
    tests

(* ------------------------------------------------------------- driver -- *)

let experiments =
  [
    ("fig5-opencl", fig5_opencl);
    ("fig5-ncs", fig5_ncs);
    ("async-ablation", async_ablation);
    ("virt-technique-comparison", virt_comparison);
    ("sharing-policies", sharing_policies);
    ("migration", migration_bench);
    ("swapping", swapping_bench);
    ("automation-metrics", automation_metrics);
    ("swap-granularity", swap_granularity);
    ("batching-ablation", batching_ablation);
    ("consolidation", consolidation);
    ("pool-scaling", pool_scaling);
    ("cluster-scaling", cluster_scaling);
    ("policy-overhead", policy_overhead);
    ("transport-sweep", transport_sweep);
    ("remoting-cache", remoting_cache);
    ("simcore", simcore);
    ("microbench", microbench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  match args with
  | [] ->
      Fmt.pr "AvA evaluation harness: running all experiments@.";
      List.iter (fun (_, f) -> f ()) experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Fmt.epr "unknown experiment %S; available: %s@." name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
