(* The repetitions of each workload, the end-to-end metrics computed
   from them, and the traced run's per-layer probes: stack-depth ladder,
   wire replay of captured frames, fleet tenant sweep. *)

open Ava_sim
module Host = Ava_core.Host
module Message = Ava_remoting.Message
module Server = Ava_remoting.Server
module Tracegen = Ava_cluster.Tracegen

let fi = Meter.fi
let m = Meter.m

(* ------------------------------------------------ one repetition -- *)

(* What every workload's repetition reports; the remoted phase is timed,
   the native phase runs the same operations on the native silos. *)
type rep = {
  cpu : float;
  wall : float;
  native_cpu : float;
  calls : int;
  payload : int;
  alloc : float;
  setup : float;
  ops : int;
  failed : int;
  events : int;
  signature : int list;  (** virtual durations and counts: must repeat *)
  rel : float;  (** sim_overhead_rel *)
  lat_us : float list;  (** virtual latency of each remoted operation *)
  complete : bool;  (** workload-specific completeness check *)
}

let us l = List.map Time.to_float_us l

(* Alternate which side runs first, so neither always inherits the
   other's heap. *)
let pair i remoted native =
  if i mod 2 = 0 then
    let r = remoted () in
    (r, native ())
  else
    let n = native () in
    (remoted (), n)

let rodinia_rep order i =
  let (r : Work.cl_run), (n : Work.pass) =
    pair i (fun () -> Work.rodinia_remoted order) (fun () -> Work.rodinia_native order)
  in
  {
    cpu = r.pass.cpu;
    wall = r.pass.wall;
    native_cpu = n.cpu;
    calls = r.calls;
    payload = r.pass.payload;
    alloc = r.pass.alloc;
    setup = r.setup_s;
    ops = List.length r.pass.virt + List.length n.virt;
    failed = r.pass.failed + n.failed;
    events = r.pass.events;
    signature = (r.calls :: r.pass.virt) @ n.virt;
    rel = Work.rel_mean r.pass.virt n.virt;
    lat_us = us r.pass.virt;
    complete = true;
  }

(* One repetition runs every sub-trace; see [fleet_subtraces]. *)
let fleet_rep traces i =
  let runs =
    List.map
      (fun (events, groups) ->
        let (r : Work.fleet_run), ((n : Work.pass), native) =
          pair i (fun () -> Work.fleet_remoted groups) (fun () -> Work.fleet_native events)
        in
        (events, r, n, native))
      traces
  in
  let total f = List.fold_left (fun acc x -> acc + f x) 0 runs in
  let totalf f = List.fold_left (fun acc x -> acc +. f x) 0.0 runs in
  {
    cpu = totalf (fun (_, r, _, _) -> r.Work.f_pass.cpu);
    wall = totalf (fun (_, r, _, _) -> r.Work.f_pass.wall);
    native_cpu = totalf (fun (_, _, n, _) -> n.cpu);
    calls = total (fun (_, r, _, _) -> r.Work.f_calls);
    payload = total (fun (_, r, _, _) -> r.Work.f_pass.payload);
    alloc = totalf (fun (_, r, _, _) -> r.Work.f_pass.alloc);
    setup = Meter.median (List.map (fun (_, r, _, _) -> r.Work.f_setup_s) runs);
    ops = total (fun (_, r, n, _) -> r.Work.f_sessions + List.length n.virt);
    failed = total (fun (_, r, n, _) -> r.Work.f_pass.failed + n.failed);
    events = total (fun (_, r, _, _) -> r.Work.f_pass.events);
    signature =
      List.concat_map
        (fun (_, r, n, _) -> (r.Work.f_calls :: List.sort compare r.Work.f_pass.virt) @ n.Work.virt)
        runs;
    rel =
      Work.fleet_rel
        (List.concat_map (fun (_, r, _, _) -> r.Work.f_service) runs)
        (List.concat_map (fun (_, _, _, native) -> native) runs);
    lat_us = List.concat_map (fun (_, r, _, _) -> us r.Work.f_pass.virt) runs;
    complete =
      List.for_all
        (fun (events, r, _, _) ->
          r.Work.f_sessions = Tracegen.total_sessions events && r.Work.f_sessions >= 1000)
        runs;
  }

let sum f parts = List.fold_left (fun acc p -> acc + f p) 0 parts
let sumf f parts = List.fold_left (fun acc p -> acc +. f p) 0.0 parts

let dataplane_rep ?cap inputs _i =
  let parts = Work.dataplane ?cap inputs in
  let rem (p : Work.dp_part) = p.d_remoted and nat (p : Work.dp_part) = p.d_native in
  {
    cpu = sumf (fun p -> (rem p).cpu) parts;
    wall = sumf (fun p -> (rem p).wall) parts;
    native_cpu = sumf (fun p -> (nat p).cpu) parts;
    calls = sum (fun p -> p.Work.d_calls) parts;
    payload = sum (fun p -> (rem p).payload) parts;
    alloc = sumf (fun p -> (rem p).alloc) parts;
    setup = sumf (fun p -> p.Work.d_setup_s) parts;
    ops = sum (fun p -> List.length (rem p).virt + List.length (nat p).virt) parts;
    failed = sum (fun p -> (rem p).failed + (nat p).failed) parts;
    events = sum (fun p -> (rem p).events) parts;
    signature =
      List.concat_map (fun p -> (p.Work.d_calls :: (rem p).virt) @ (nat p).virt) parts;
    rel =
      Work.rel_mean
        (List.concat_map (fun p -> (rem p).virt) parts)
        (List.concat_map (fun p -> (nat p).virt) parts);
    lat_us = us (List.concat_map (fun p -> (rem p).virt) parts);
    complete = true;
  }

(* ------------------------------------------------------- end to end -- *)

let med f reps = Meter.median (List.map f reps)
let calls_per_s reps = med (fun r -> fi r.calls /. r.cpu) reps

(* The first repetition fills the heap and the stack's lazy state; host
   timings come from the repetitions after it. *)
let timed reps = match reps with _ :: (_ :: _ as rest) -> rest | l -> l

(* Allocation of the first timed repetition: every run of a seed has the
   same history up to it, so it repeats exactly (later repetitions
   format ever-larger global ids and allocate a few bytes more). *)
let alloc_rep reps = List.hd (timed reps)

let end_to_end reps =
  let a = alloc_rep reps in
  let reps = timed reps in
  [
    m "calls_per_s" "calls/s" (calls_per_s reps);
    m "payload_mb_per_s" "MB/s" (med (fun r -> fi r.payload /. 1e6 /. r.cpu) reps);
    m "host_ratio_vs_native" "x" (med (fun r -> r.cpu /. r.native_cpu) reps);
    m "alloc_kb_per_call" "kB/call" (a.alloc /. fi a.calls /. 1e3);
    m "peak_heap_mb" "MB" (Meter.peak_heap_mb ());
    m "setup_s" "s" (med (fun r -> r.setup) reps);
    m "sim_overhead_rel" "x" (List.hd reps).rel;
  ]

(* Virtual-time results must repeat exactly within a run. *)
let deterministic reps =
  match reps with
  | [] -> false
  | r0 :: rest ->
      List.for_all (fun r -> r.signature = r0.signature && r.rel = r0.rel) rest

(* --------------------------------------------------------- per layer -- *)

(* Every per-layer metric, in BENCHMARK.json order.  A traced run prints
   all of them; a layer the workload does not exercise reads 0. *)
let per_layer_units =
  let wire_class c =
    [
      ("wire." ^ c ^ ".msgs", "count");
      ("wire." ^ c ^ ".encode_ns_per_kb", "ns/kB");
      ("wire." ^ c ^ ".decode_ns_per_kb", "ns/kB");
      ("wire." ^ c ^ ".encode_alloc_ratio", "ratio");
      ("wire." ^ c ^ ".decode_alloc_ratio", "ratio");
    ]
  in
  [
    ("sim.events_per_call", "events/call");
    ("sim.host_ns_per_event", "ns");
    ("sim.alloc_b_per_event", "B");
    ("spec.load_s", "s");
    ("codegen.plan_compile_s", "s");
    ("core.host_create_s", "s");
    ("stub.sync_calls", "count");
    ("stub.async_calls", "count");
    ("stub.marshalled_kb_per_call", "kB/call");
    ("stub.cache_refs", "count");
    ("stub.nak_resends", "count");
    ("stub.sva_maps", "count");
    ("wire.msgs_per_call", "msgs/call");
    ("wire.bytes_per_msg", "B");
    ("wire.encode_ns_per_kb", "ns/kB");
    ("wire.decode_ns_per_kb", "ns/kB");
    ("wire.encode_alloc_ratio", "ratio");
    ("wire.decode_alloc_ratio", "ratio");
    ("wire.host_share", "ratio");
  ]
  @ wire_class "small" @ wire_class "mid" @ wire_class "large"
  @ [
      ("transport.kb_per_call", "kB/call");
      ("router.forwarded", "count");
      ("router.rejected", "count");
      ("router.requeued", "count");
      ("router.flows", "count");
      ("router.host_ns_per_call", "ns");
      ("server.executed", "count");
      ("server.naks", "count");
      ("server.cache_hit_ratio", "ratio");
      ("server.cache_saved_mb", "MB");
      ("server.cache_evictions", "count");
      ("server.sva_resolutions", "count");
      ("server.unexpected_exns", "count");
      ("silo.cl.host_ns_per_call", "ns");
      ("silo.nc.host_ns_per_call", "ns");
      ("silo.qa.host_ns_per_call", "ns");
      ("silo.st.host_ns_per_call", "ns");
      ("device.busy_virtual_frac", "ratio");
      ("device.kernels", "count");
      ("iommu.maps", "count");
      ("dma.mb", "MB");
      ("pool.migrations", "count");
      ("pool.rebalances", "count");
      ("pool.busy_skew", "ratio");
      ("cluster.admissions", "count");
      ("cluster.rejected_admissions", "count");
      ("cluster.cross_migrations", "count");
      ("cluster.admit_host_us", "us");
      ("obs.host_ns_per_call", "ns");
      ("session_p50_virtual_us", "us");
      ("session_p99_virtual_us", "us");
      ("session_count", "count");
      ("failed_frac", "ratio");
      ("trace.overhead", "ratio");
      ("trace.spans", "count");
      ("span.setup.self_ms", "ms");
      ("span.engine_run.self_ms", "ms");
      ("span.api.self_ms", "ms");
      ("span.api.self_ns_per_call", "ns");
      ("span.admit.self_ms", "ms");
      ("span.session.self_ms", "ms");
      ("span.retire.self_ms", "ms");
      ("sweep.t64.calls_per_s", "calls/s");
      ("sweep.t64.router_flows", "count");
      ("sweep.t256.calls_per_s", "calls/s");
      ("sweep.t256.router_flows", "count");
      ("sweep.t1024.calls_per_s", "calls/s");
      ("sweep.t1024.router_flows", "count");
    ]

(* Counters of one remoted repetition. *)
let snap_metrics (s : Work.snap) ~calls =
  let c = fi calls in
  [
    ("stub.sync_calls", fi s.stub_sync);
    ("stub.async_calls", fi s.stub_async);
    ("stub.marshalled_kb_per_call", Meter.ratio (fi s.stub_marshalled /. 1e3) c);
    ("stub.cache_refs", fi s.stub_refs);
    ("stub.nak_resends", fi s.stub_nak_resends);
    ("stub.sva_maps", fi s.stub_sva_maps);
    ("transport.kb_per_call", Meter.ratio (fi s.wire_bytes /. 1e3) c);
    ("router.forwarded", fi s.rt_forwarded);
    ("router.rejected", fi s.rt_rejected);
    ("router.requeued", fi s.rt_requeued);
    ("router.flows", fi s.rt_flows);
    ("server.executed", fi s.srv_executed);
    ("server.naks", fi s.srv_naks);
    ( "server.cache_hit_ratio",
      Meter.ratio (fi s.srv_hits) (fi (s.srv_hits + s.srv_misses + s.srv_insertions)) );
    ("server.cache_saved_mb", fi s.srv_saved /. 1e6);
    ("server.cache_evictions", fi s.srv_evictions);
    ("server.sva_resolutions", fi s.srv_sva);
    ("server.unexpected_exns", fi s.srv_unexpected);
    ("device.busy_virtual_frac", Meter.ratio (fi s.gpu_busy_ns) (fi s.gpu_span_ns));
    ("device.kernels", fi s.gpu_kernels);
    ("iommu.maps", fi s.iommu_maps);
    ("dma.mb", fi s.dma_bytes /. 1e6);
  ]

let rep_metrics reps =
  let r0 = List.hd reps in
  let lat = r0.lat_us in
  [
    ("sim.events_per_call", Meter.ratio (fi r0.events) (fi r0.calls));
    ("sim.host_ns_per_event", med (fun r -> r.cpu *. 1e9 /. fi r.events) (timed reps));
    ("sim.alloc_b_per_event", (alloc_rep reps).alloc /. fi (alloc_rep reps).events);
    ("core.host_create_s", med (fun r -> r.setup) (timed reps));
    ("session_p50_virtual_us", Meter.quantile 0.5 lat);
    ("session_p99_virtual_us", Meter.quantile 0.99 lat);
    ("session_count", fi (List.length lat));
    ( "failed_frac",
      Meter.ratio (fi (sum (fun r -> r.failed) reps)) (fi (sum (fun r -> r.ops) reps)) );
  ]

(* Median seconds of [k] runs of [f]. *)
let timed_median ?(k = 5) f =
  Meter.median
    (List.init k (fun _ ->
         let c0 = Meter.wall () in
         ignore (Sys.opaque_identity (f ()));
         Meter.wall () -. c0))

let spec_metrics loads =
  let compile spec =
    match Ava_codegen.Plan.compile spec with
    | Ok p -> p
    | Error e -> failwith ("plan compile: " ^ e)
  in
  let specs = List.map (fun load -> load ()) loads in
  [
    ("spec.load_s", timed_median (fun () -> List.map (fun load -> load ()) loads));
    ("codegen.plan_compile_s", timed_median (fun () -> List.map compile specs));
  ]

(* Self time of the benchmark's spans, per traced repetition. *)
let span_metrics ~reps ~calls =
  let selfs = Meter.self_times () in
  let self name =
    match List.assoc_opt name selfs with Some (_, s, _) -> s | None -> 0.0
  in
  let per_rep name = self name *. 1e3 /. fi reps in
  (* Guest API spans are named "api.<silo>"; each silo runs on its own
     engine, so their self times add. *)
  let api_ms =
    List.fold_left
      (fun acc (n, (_, s, _)) ->
        if String.starts_with ~prefix:"api." n then acc +. s else acc)
      0.0 selfs
    *. 1e3 /. fi reps
  in
  [
    ("trace.spans", fi (List.length !Meter.spans));
    ("span.setup.self_ms", per_rep "setup");
    ("span.engine_run.self_ms", per_rep "engine.run");
    ("span.api.self_ms", api_ms);
    ("span.api.self_ns_per_call", Meter.ratio (api_ms *. 1e6) (fi calls));
    ("span.admit.self_ms", per_rep "cluster.admit");
    ("span.session.self_ms", per_rep "cluster.run_session");
    ("span.retire.self_ms", per_rep "cluster.retire");
  ]

(* --------------------------------------------------------- wire replay -- *)

(* Frames seen by an API server: every executed call through the
   server's public call hook, and the replies from its reply log
   (harvested before the log's window can evict them). *)
let frame_capture () =
  let frames = ref [] and finishers = ref [] in
  let capture (type st) (srv : st Server.t) =
    let seen = Hashtbl.create 4096 and vms = Hashtbl.create 4 and n = ref 0 in
    let harvest vm_id =
      match Server.export_replies srv ~vm_id with
      | replies ->
          List.iter
            (fun (seq, r) ->
              if not (Hashtbl.mem seen (vm_id, seq)) then begin
                Hashtbl.add seen (vm_id, seq) ();
                frames := Message.Reply r :: !frames
              end)
            replies
      | exception Invalid_argument _ -> ()
    in
    Server.set_call_hook srv (fun ~vm_id ~status:_ c ->
        Hashtbl.replace vms vm_id ();
        frames := Message.Call c :: !frames;
        incr n;
        if !n mod 1024 = 0 then harvest vm_id);
    finishers := (fun () -> Hashtbl.iter (fun vm _ -> harvest vm) vms) :: !finishers
  in
  let finish () =
    List.iter (fun f -> f ()) !finishers;
    List.rev !frames
  in
  ({ Work.capture }, finish)

let size_class n =
  if n <= 256 then Some "small"
  else if n >= 4096 && n <= 1024 * 1024 then Some "mid"
  else if n > 1024 * 1024 then Some "large"
  else None

(* Encode and decode every frame of a class three times; median times,
   allocation of the first round.  Returns (frames, bytes, enc s, dec s,
   enc alloc, dec alloc). *)
let replay frames =
  let n = Array.length frames in
  let rounds =
    List.init 3 (fun _ ->
        let a0 = Meter.allocated () and t0 = Meter.wall () in
        let enc = Array.map Message.encode frames in
        let t1 = Meter.wall () and a1 = Meter.allocated () in
        let ok = Array.for_all (fun b -> Result.is_ok (Message.decode b)) enc in
        let t2 = Meter.wall () and a2 = Meter.allocated () in
        if not ok then failwith "wire replay: a captured frame failed to decode";
        let bytes = Array.fold_left (fun acc b -> acc + Bytes.length b) 0 enc in
        (bytes, t1 -. t0, t2 -. t1, a1 -. a0, a2 -. a1))
  in
  let bytes, _, _, ea, da = List.hd rounds in
  let pick f = Meter.median (List.map f rounds) in
  (n, bytes, pick (fun (_, e, _, _, _) -> e), pick (fun (_, _, d, _, _) -> d), ea, da)

let wire_metrics frames ~calls ~remoted_cpu =
  let classify name fs =
    let n, bytes, enc, dec, ea, da = replay (Array.of_list fs) in
    let kb = fi bytes /. 1e3 in
    ( (n, bytes, enc, dec),
      [
        ("wire." ^ name ^ ".msgs", fi n);
        ("wire." ^ name ^ ".encode_ns_per_kb", Meter.ratio (enc *. 1e9) kb);
        ("wire." ^ name ^ ".decode_ns_per_kb", Meter.ratio (dec *. 1e9) kb);
        ("wire." ^ name ^ ".encode_alloc_ratio", Meter.ratio ea (fi bytes));
        ("wire." ^ name ^ ".decode_alloc_ratio", Meter.ratio da (fi bytes));
      ] )
  in
  let sized = List.map (fun f -> (f, size_class (Bytes.length (Message.encode f)))) frames in
  let classes =
    List.map
      (fun c ->
        snd (classify c (List.filter_map (fun (f, k) -> if k = Some c then Some f else None) sized)))
      [ "small"; "mid"; "large" ]
  in
  let (n, bytes, enc, dec), overall = classify "all" frames in
  let kb = fi bytes /. 1e3 in
  (* Each frame is encoded once and decoded twice on the AvA path (the
     router parses it before the server or stub does). *)
  [
    ("wire.msgs_per_call", Meter.ratio (fi n) (fi calls));
    ("wire.bytes_per_msg", Meter.ratio (fi bytes) (fi n));
    ("wire.encode_ns_per_kb", Meter.ratio (enc *. 1e9) kb);
    ("wire.decode_ns_per_kb", Meter.ratio (dec *. 1e9) kb);
    ("wire.encode_alloc_ratio", List.assoc "wire.all.encode_alloc_ratio" overall);
    ("wire.decode_alloc_ratio", List.assoc "wire.all.decode_alloc_ratio" overall);
    ("wire.host_share", Meter.ratio (enc +. (2.0 *. dec)) remoted_cpu);
  ]
  @ List.concat classes

(* ------------------------------------------------------------ runs -- *)

(* Untraced repetitions, then [traced_reps] traced ones (the warm-up
   repetition included in both).  More traced repetitions would only
   grow the retained span list, whose GC cost is not the stack's. *)
let traced_reps = 3

let traced_pair ~seconds run =
  let base = Meter.repeat ~seconds ~min_reps:traced_reps run in
  Meter.reset_spans ();
  Meter.tracing := true;
  let traced = List.init traced_reps run in
  Meter.tracing := false;
  (base, traced)

let overhead ~base ~traced =
  [ ("trace.overhead", calls_per_s (timed traced) /. calls_per_s (timed base)) ]

let rodinia ~seed ~seconds ~trace =
  let order = Work.shuffle seed Ava_workloads.Rodinia.all in
  let run = rodinia_rep order in
  if not trace then (Meter.repeat ~seconds ~min_reps:3 run, [])
  else begin
    let base, traced = traced_pair ~seconds:(seconds /. 4.0) run in
    let spans = span_metrics ~reps:(List.length traced) ~calls:(List.hd base).calls in
    (* Stack-depth ladder on the same inputs, rungs interleaved. *)
    let k = 3 in
    let rungs =
      List.init k (fun _ ->
          let native = (Work.rodinia_native order).cpu in
          let user = (Work.rodinia_remoted ~technique:Host.User_rpc order).pass.cpu in
          let ava = Work.rodinia_remoted order in
          let obs =
            (Work.rodinia_remoted ~obs:(Ava_obs.Obs.create ()) order).pass.cpu
          in
          (native, user, ava, obs))
    in
    let _, _, (ava0 : Work.cl_run), _ = List.hd rungs in
    let calls = fi ava0.calls in
    let rung f = Meter.median (List.map f rungs) in
    let native = rung (fun (n, _, _, _) -> n)
    and user = rung (fun (_, u, _, _) -> u)
    and ava = rung (fun (_, _, a, _) -> (a : Work.cl_run).pass.cpu)
    and obs = rung (fun (_, _, _, o) -> o) in
    let cap, finish = frame_capture () in
    let _ = Work.rodinia_remoted ~before_run:(fun h -> cap.Work.capture h.Host.server) order in
    let frames = finish () in
    ( base,
      overhead ~base ~traced @ spans
      @ spec_metrics [ Ava_spec.Specs.load_simcl ]
      @ snap_metrics ava0.snap ~calls:ava0.calls
      @ wire_metrics frames ~calls:ava0.calls
          ~remoted_cpu:(med (fun r -> r.cpu) (timed base))
      @ [
          ("silo.cl.host_ns_per_call", native *. 1e9 /. calls);
          ("router.host_ns_per_call", (ava -. user) *. 1e9 /. calls);
          ("obs.host_ns_per_call", (obs -. ava) *. 1e9 /. calls);
        ] )
  end

let fleet_tenants = 300

(* Independent traces per repetition.  Host cost per call depends on
   when a trace's calls fall relative to its arrivals (a call scans
   every flow attached so far), which moved calls_per_s by 9% between
   single traces; three per repetition average that out. *)
let fleet_subtraces = 3

let fleet ~seed ~seconds ~trace =
  let traces =
    List.init fleet_subtraces (fun k ->
        let events =
          Work.fleet_trace ~seed:((seed * fleet_subtraces) + k) ~tenants:fleet_tenants
        in
        (events, Work.by_tenant events))
  in
  let events, groups = List.hd traces in
  let run = fleet_rep traces in
  if not trace then (Meter.repeat ~seconds ~min_reps:3 run, [])
  else begin
    let base, traced = traced_pair ~seconds:(seconds /. 4.0) run in
    let spans = span_metrics ~reps:(List.length traced) ~calls:(List.hd base).calls in
    let armed = Work.fleet_remoted groups in
    let disarmed = Work.fleet_remoted ~obs:false groups in
    let native, _ = Work.fleet_native events in
    let calls = fi armed.f_calls in
    (* Tenant sweep: host cost per call against flows ever attached; the
       second of two runs per point, so each is warm. *)
    let sweep =
      List.concat_map
        (fun t ->
          let groups = Work.by_tenant (Work.fleet_trace ~seed ~tenants:t) in
          ignore (Work.fleet_remoted groups);
          let r = Work.fleet_remoted groups in
          let name = Printf.sprintf "sweep.t%d." t in
          [
            (name ^ "calls_per_s", fi r.f_calls /. r.f_pass.cpu);
            (name ^ "router_flows", fi r.f_snap.rt_flows /. 2.0);
          ])
        [ 64; 256; 1024 ]
    in
    ( base,
      overhead ~base ~traced @ spans
      @ spec_metrics [ Ava_spec.Specs.load_simcl ]
      (* Mean flows per router; listed first, so it wins over the sum in
         [snap_metrics]. *)
      @ [ ("router.flows", fi armed.f_snap.rt_flows /. 2.0) ]
      @ snap_metrics armed.f_snap ~calls:armed.f_calls
      @ [
          ("silo.cl.host_ns_per_call", native.cpu *. 1e9 /. calls);
          ("obs.host_ns_per_call", (armed.f_pass.cpu -. disarmed.f_pass.cpu) *. 1e9 /. calls);
          ("pool.migrations", fi armed.f_pool_migrations);
          ("pool.rebalances", fi armed.f_pool_rebalances);
          ("pool.busy_skew", armed.f_busy_skew);
          ("cluster.admissions", fi armed.f_admissions);
          ("cluster.rejected_admissions", fi armed.f_rejected_admissions);
          ("cluster.cross_migrations", fi armed.f_cross_migrations);
          ("cluster.admit_host_us", Meter.ratio (armed.f_admit_s *. 1e6) (fi armed.f_admissions));
        ]
      @ sweep )
  end

let dataplane ~seed ~seconds ~trace =
  let inputs = Work.dp_inputs seed in
  let run = dataplane_rep inputs in
  if not trace then (Meter.repeat ~seconds ~min_reps:3 run, [])
  else begin
    let base, traced = traced_pair ~seconds:(seconds /. 4.0) run in
    let spans = span_metrics ~reps:(List.length traced) ~calls:(List.hd base).calls in
    let cap, finish = frame_capture () in
    let parts = Work.dataplane ~cap inputs in
    let frames = finish () in
    let calls = sum (fun p -> p.Work.d_calls) parts in
    let silo (p : Work.dp_part) =
      ( "silo." ^ p.part ^ ".host_ns_per_call",
        Meter.ratio (p.d_native.cpu *. 1e9) (fi p.d_calls) )
    in
    ( base,
      overhead ~base ~traced @ spans
      @ spec_metrics
          Ava_spec.Specs.[ load_simcl; load_mvnc; load_qat; load_simst ]
      @ snap_metrics
          (List.fold_left Work.add Work.zero (List.map (fun p -> p.Work.d_snap) parts))
          ~calls
      @ wire_metrics frames ~calls ~remoted_cpu:(med (fun r -> r.cpu) (timed base))
      @ List.map silo parts )
  end

