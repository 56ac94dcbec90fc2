(* One campaign scenario: assemble a pooled stack, interpret an op
   trace, quiesce, check the fleet invariants.

   The interpreter is total.  Any op whose reference is no longer
   valid — a slot never admitted or already retired, a dead device, a
   kill that would strand the fleet — is a recorded no-op, so every
   subsequence of a trace is itself a valid trace; the shrinker leans
   on this to delete ops freely while hunting a minimal reproducer.

   Determinism: one splitmix64 stream per concern, all split off
   [sc_seed]; the simulation itself is deterministic, so a (config,
   trace) pair fully determines the outcome. *)

module Pool = Ava_pool.Pool
module Host = Ava_core.Host
module Report = Ava_core.Report
module Server = Ava_remoting.Server
module Router = Ava_remoting.Router
module Policy = Ava_remoting.Policy
module Stub = Ava_remoting.Stub
module Faults = Ava_transport.Faults
module Transport = Ava_transport.Transport
module Devfault = Ava_device.Devfault
module Obs = Ava_obs.Obs
module Rodinia = Ava_workloads.Rodinia
module Clutil = Ava_workloads.Clutil

open Ava_sim

type config = {
  sc_devices : int;
  sc_placement : Pool.placement;
  sc_sva : bool;
  sc_doorbell : bool;
  sc_batching : bool;
  sc_cache : int;
  sc_faults : string;
  sc_seed : int64;
  sc_max_tenants : int;
}

let default_config =
  {
    sc_devices = 3;
    sc_placement = Pool.Round_robin;
    sc_sva = true;
    sc_doorbell = true;
    sc_batching = false;
    sc_cache = 256 * 1024;
    sc_faults = "light";
    sc_seed = 42L;
    sc_max_tenants = 4;
  }

let random_config rng =
  let placements = [| Pool.Round_robin; Pool.Least_loaded; Pool.Bin_pack |] in
  {
    sc_devices = 2 + Rng.int rng 2;
    sc_placement = placements.(Rng.int rng 3);
    sc_sva = Rng.bool rng;
    sc_doorbell = Rng.bool rng;
    sc_batching = Rng.bool rng;
    sc_cache = (if Rng.bool rng then 256 * 1024 else 0);
    sc_faults = (if Rng.int rng 4 = 0 then "none" else "light");
    sc_seed = Rng.next rng;
    sc_max_tenants = 3 + Rng.int rng 2;
  }

type invariant =
  | No_crash
  | Seq_ledger
  | Accounting
  | Conservation
  | Residency
  | Isolation
  | Obs_twin

let invariant_name = function
  | No_crash -> "no-crash"
  | Seq_ledger -> "seq-ledger"
  | Accounting -> "accounting"
  | Conservation -> "conservation"
  | Residency -> "residency"
  | Isolation -> "isolation"
  | Obs_twin -> "obs-twin"

type verdict = Pass | Violation of invariant * string | Hang of string

let pp_verdict ppf = function
  | Pass -> Format.pp_print_string ppf "pass"
  | Violation (i, d) ->
      Format.fprintf ppf "violation %s: %s" (invariant_name i) d
  | Hang d -> Format.fprintf ppf "hang: %s" d

type sabotage = Crash_worker | Overcharge

type outcome = {
  oc_verdict : verdict;
  oc_final_ns : Time.t;
  oc_executed : int;
  oc_applied : int;
}

(* --- memory-pressure workload --------------------------------------------- *)

(* Buffer churn: [n] one-shot 256 KiB buffers written, read back,
   verified and released in sequence — pure memory pressure against the
   swap and transfer-cache layers, no kernel work. *)
let buffer_churn api n =
  let s = Clutil.open_session api in
  let module CL = (val api : Ava_simcl.Api.S) in
  let size = 256 * 1024 in
  let good = ref true in
  for i = 1 to n do
    let buf = Clutil.buffer s size in
    let src = Bytes.init size (fun j -> Char.chr ((i + j) land 0xff)) in
    Clutil.write ~blocking:true s buf src;
    if not (Bytes.equal (Clutil.read s buf ~size) src) then good := false;
    Clutil.ok (CL.clReleaseMemObject buf)
  done;
  Clutil.finish s;
  Clutil.close_session s;
  !good

(* --- interpreter ---------------------------------------------------------- *)

(* Per-tenant side-silo sessions: the NC and QA stacks live next to the
   pooled CL fleet on the same engine, one lazily created guest per
   tenant slot.  Both stacks run fault-free, so their ops extend the
   isolation check to two more generated remoting paths for free. *)
type nc_session = {
  ns_api : (module Ava_simnc.Api.S);
  ns_graph : int;  (** resident graph handle *)
}

type qa_session = {
  qs_api : (module Ava_simqa.Api.S);
  qs_cs : int;  (** compress session *)
  qs_ds : int;  (** decompress session *)
}

type tenant = {
  tn_slot : int;
  tn_guest : Host.cl_guest;
  tn_vm_id : int;
  tn_faults : Faults.t;
  mutable tn_live : bool;
  mutable tn_crashed : bool;  (** worker down, restart scheduled *)
  mutable tn_faulty : bool;  (** failures allowed by the isolation model *)
  mutable tn_pending : int;  (** submissions not yet finished *)
  mutable tn_failures : string list;  (** API failures its workloads hit *)
  mutable tn_bad_result : bool;  (** a vec_add readback had wrong sums *)
  mutable tn_nc : nc_session option;
  mutable tn_qa : qa_session option;
}

type state = {
  st_engine : Engine.t;
  st_host : Host.cl_host;
  st_config : config;
  st_rng : Rng.t;  (** per-tenant fault-seed derivation *)
  mutable st_tenants : tenant list;  (** newest first *)
  mutable st_profile : string;
  mutable st_applied : int;
  mutable st_crash_exn : string option;
  mutable st_retired : int;  (** successful retires, our side of the ledger *)
  mutable st_nc_host : Host.nc_host option;  (** lazily built side silo *)
  mutable st_qa_host : Host.qa_host option;
}

let profile_config = function "light" -> Faults.light | _ -> Faults.none

let tenant st slot =
  List.find_opt (fun t -> t.tn_slot = slot) st.st_tenants

let live_tenants st = List.filter (fun t -> t.tn_live) st.st_tenants

let the_pool st = st.st_host.Host.cl_pool

let current_server st vm_id =
  Option.map (Pool.server (the_pool st)) (Pool.device_of (the_pool st) ~vm_id)

(* The device-fault model: transient launch failures and rare hangs
   (recovered by the host TDR), always targeted at client 1 — the
   first-admitted tenant — so exactly one tenant's fault pattern is
   known in advance and everyone else must stay clean. *)
let devfault_target = 1

let make_devfaults seed =
  Devfault.create
    ~gpu:
      {
        Devfault.gpu_hang = 0.002;
        gpu_launch_fail = 0.01;
        gpu_dma_corrupt = 0.0;
        gpu_target = Some devfault_target;
      }
    ~seed ()

let admit st =
  if List.length st.st_tenants >= st.st_config.sc_max_tenants then false
  else begin
    let slot = List.length st.st_tenants in
    let faults =
      Faults.create ~seed:(Rng.next st.st_rng)
        (profile_config st.st_profile)
    in
    let guest =
      Host.add_cl_vm st.st_host ~batching:st.st_config.sc_batching
        ~retry:Stub.default_retry ~faults
        ~breaker:Policy.Breaker.default_config
        ~name:(Printf.sprintf "t%d" slot)
    in
    let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
    st.st_tenants <-
      {
        tn_slot = slot;
        tn_guest = guest;
        tn_vm_id = vm_id;
        tn_faults = faults;
        tn_live = true;
        tn_crashed = false;
        tn_faulty = vm_id = devfault_target;
        tn_pending = 0;
        tn_failures = [];
        tn_bad_result = false;
        tn_nc = None;
        tn_qa = None;
      }
      :: st.st_tenants;
    true
  end

let submit st tn w =
  tn.tn_pending <- tn.tn_pending + 1;
  Engine.spawn st.st_engine (fun () ->
      (try
         match w with
         | Op.Vec_add n ->
             (* The one workload in the mix whose device-computed output
                is checked bit-for-bit: data corruption anywhere in the
                remoting path surfaces here as [false], not just as an
                error status. *)
             if
               not
                 (Clutil.vec_add tn.tn_guest.Host.g_api ~n ~launches:1
                    ~release:false)
             then
               tn.tn_bad_result <- true
         | Op.Bench b -> (
             match Rodinia.find b with
             | Some bench -> bench.Rodinia.run tn.tn_guest.Host.g_api
             | None -> ())
       with
      | Clutil.Api_failure m -> tn.tn_failures <- m :: tn.tn_failures
      | exn ->
          if st.st_crash_exn = None then
            st.st_crash_exn <- Some (Printexc.to_string exn));
      tn.tn_pending <- tn.tn_pending - 1);
  true

let retire st tn =
  if
    tn.tn_crashed || tn.tn_pending > 0
    || Router.in_flight_calls st.st_host.Host.router ~vm_id:tn.tn_vm_id > 0
  then false
  else if Host.retire_cl_vm st.st_host ~vm_id:tn.tn_vm_id then begin
    tn.tn_live <- false;
    st.st_retired <- st.st_retired + 1;
    true
  end
  else false

let migrate st tn dest =
  let pool = the_pool st in
  if
    (not tn.tn_crashed)
    && dest >= 0
    && dest < Pool.n_devices pool
    && Pool.is_healthy pool dest
  then begin
    ignore (Pool.migrate_vm pool ~vm_id:tn.tn_vm_id ~dest);
    true
  end
  else false

let kill st dev =
  let pool = the_pool st in
  if dev < 0 || dev >= Pool.n_devices pool then false
  else
    let healthy =
      List.length
        (List.filter
           (fun d -> Pool.is_healthy pool d)
           (List.init (Pool.n_devices pool) Fun.id))
    in
    match (Pool.is_healthy pool dev, healthy >= 2) with
    | true, true ->
        (* Anyone resident at the instant of loss may legitimately
           surface faults; the isolation invariant holds everyone
           else to a clean run. *)
        List.iter
          (fun vm_id ->
            List.iter
              (fun t -> if t.tn_vm_id = vm_id then t.tn_faulty <- true)
              st.st_tenants)
          (Pool.resident pool dev);
        Pool.kill_device pool ~device:dev;
        true
    | _ -> false

let crash st tn outage_ns =
if tn.tn_crashed then false
else
  match current_server st tn.tn_vm_id with
  | Some srv when Option.is_some (Server.vm_ctx srv ~vm_id:tn.tn_vm_id) ->
      let vm_id = tn.tn_vm_id in
      Server.crash srv ~vm_id;
      tn.tn_crashed <- true;
      Engine.schedule_after st.st_engine outage_ns (fun () ->
          tn.tn_crashed <- false;
          (* The tenant may have migrated or retired during the
             outage; only the server still holding its (crashed)
             entry gets the restart. *)
          if
            Option.is_some (Server.vm_ctx srv ~vm_id)
            && Server.is_crashed srv ~vm_id
          then begin
            Server.restart srv ~vm_id;
            ignore
              (Router.requeue_in_flight st.st_host.Host.router ~vm_id)
          end);
      true
  | _ -> false

let swap_pressure st tn n =
tn.tn_pending <- tn.tn_pending + 1;
Engine.spawn st.st_engine (fun () ->
    (try
       if not (buffer_churn tn.tn_guest.Host.g_api n) then
         tn.tn_bad_result <- true
     with
    | Clutil.Api_failure m -> tn.tn_failures <- m :: tn.tn_failures
    | exn ->
        if st.st_crash_exn = None then
          st.st_crash_exn <- Some (Printexc.to_string exn));
    tn.tn_pending <- tn.tn_pending - 1);
true

(* Clamp the tenant's device-time quota to a near-zero budget and push
   the reference workload through it: quota enforcement defers at
   admission, so the run must throttle — visibly slower, never wedged,
   rejected or wrong. *)
let quota_exhaust st tn =
  Router.set_quota st.st_host.Host.router ~vm_id:tn.tn_vm_id ~budget:5e3
    ~window_ns:(Time.ms 1);
  submit st tn (Op.Vec_add 64)

(* --- side-silo work (NC / QA) --------------------------------------------- *)

let nc_output_bytes = 16

let nc_ok = function
  | Ok v -> v
  | Error s ->
      raise (Clutil.Api_failure ("mvnc " ^ Ava_simnc.Types.status_to_string s))

let qa_ok = function
  | Ok v -> v
  | Error s ->
      raise (Clutil.Api_failure ("qa " ^ Ava_simqa.Types.status_to_string s))

let nc_host st =
  match st.st_nc_host with
  | Some h -> h
  | None ->
      let h = Host.create_nc_host st.st_engine in
      st.st_nc_host <- Some h;
      h

let qa_host st =
  match st.st_qa_host with
  | Some h -> h
  | None ->
      let h = Host.create_qa_host st.st_engine in
      st.st_qa_host <- Some h;
      h

(* Lazily stand up the tenant's side-silo guest on first use.  Two
   overlapping first submissions may both build a session (setup blocks
   on graph upload); the first to finish wins the slot and the loser's
   guest just idles — wasteful, never wrong. *)
let nc_session st tn =
  match tn.tn_nc with
  | Some s -> s
  | None ->
      let guest =
        Host.add_nc_vm (nc_host st) ~name:(Printf.sprintf "t%d-nc" tn.tn_slot)
      in
      let module NC = (val guest.Host.ng_api) in
      let name = nc_ok (NC.mvncGetDeviceName ~index:0) in
      let d = nc_ok (NC.mvncOpenDevice ~name) in
      let graph_data =
        Ava_simnc.Graphdef.encode
          {
            Ava_simnc.Graphdef.layer_flops = [ 1e6; 2e6 ];
            output_bytes = nc_output_bytes;
          }
      in
      let g = nc_ok (NC.mvncAllocateGraph d ~graph_data) in
      let s = { ns_api = guest.Host.ng_api; ns_graph = g } in
      (match tn.tn_nc with None -> tn.tn_nc <- Some s | Some _ -> ());
      s

let qa_session st tn =
  match tn.tn_qa with
  | Some s -> s
  | None ->
      let guest =
        Host.add_qa_vm (qa_host st) ~name:(Printf.sprintf "t%d-qa" tn.tn_slot)
      in
      let module QA = (val guest.Host.qg_api) in
      let inst = qa_ok (QA.qaStartInstance ~index:0) in
      let cs =
        qa_ok (QA.qaCreateSession inst Ava_simqa.Types.Dir_compress ~level:5)
      in
      let ds =
        qa_ok (QA.qaCreateSession inst Ava_simqa.Types.Dir_decompress ~level:5)
      in
      let s = { qs_api = guest.Host.qg_api; qs_cs = cs; qs_ds = ds } in
      (match tn.tn_qa with None -> tn.tn_qa <- Some s | Some _ -> ());
      s

(* One MVNC inference on the tenant's side-silo guest: queue a tensor,
   wait for the result, check the declared output size. *)
let submit_nc st tn bytes =
  tn.tn_pending <- tn.tn_pending + 1;
  Engine.spawn st.st_engine (fun () ->
      (try
         let s = nc_session st tn in
         let module NC = (val s.ns_api) in
         let tensor =
           Bytes.init (max 1 bytes) (fun i -> Char.chr (i land 0xff))
         in
         nc_ok (NC.mvncLoadTensor s.ns_graph ~tensor);
         let out = nc_ok (NC.mvncGetResult s.ns_graph) in
         if Bytes.length out <> nc_output_bytes then tn.tn_bad_result <- true
       with
      | Clutil.Api_failure m -> tn.tn_failures <- m :: tn.tn_failures
      | exn ->
          if st.st_crash_exn = None then
            st.st_crash_exn <- Some (Printexc.to_string exn));
      tn.tn_pending <- tn.tn_pending - 1);
  true

(* One compress/decompress roundtrip; the decompressed payload must be
   byte-identical to the original. *)
let submit_qa st tn kib =
  tn.tn_pending <- tn.tn_pending + 1;
  Engine.spawn st.st_engine (fun () ->
      (try
         let s = qa_session st tn in
         let module QA = (val s.qs_api) in
         let payload =
           Bytes.init (1024 * max 1 kib) (fun i -> Char.chr (i * 7 land 0xff))
         in
         let packed = qa_ok (QA.qaCompress s.qs_cs ~src:payload) in
         let back = qa_ok (QA.qaDecompress s.qs_ds ~src:packed) in
         if not (Bytes.equal back payload) then tn.tn_bad_result <- true
       with
      | Clutil.Api_failure m -> tn.tn_failures <- m :: tn.tn_failures
      | exn ->
          if st.st_crash_exn = None then
            st.st_crash_exn <- Some (Printexc.to_string exn));
      tn.tn_pending <- tn.tn_pending - 1);
  true

let flip st profile =
  st.st_profile <- profile;
  List.iter
    (fun t -> Faults.set_config t.tn_faults (profile_config profile))
    st.st_tenants;
  true

let apply st (op : Op.op) =
  if op.Op.delay_ns > 0 then Engine.delay op.Op.delay_ns;
  let applied =
    match op.Op.kind with
    | Op.Admit -> admit st
    | Op.Retire slot -> (
        match tenant st slot with
        | Some tn when tn.tn_live -> retire st tn
        | _ -> false)
    | Op.Submit (slot, w) -> (
        match tenant st slot with
        | Some tn when tn.tn_live -> submit st tn w
        | _ -> false)
    | Op.Migrate (slot, dest) -> (
        match tenant st slot with
        | Some tn when tn.tn_live -> migrate st tn dest
        | _ -> false)
    | Op.Kill_device dev -> kill st dev
    | Op.Rebalance -> Pool.rebalance_now (the_pool st)
    | Op.Crash (slot, outage_ns) -> (
        match tenant st slot with
        | Some tn when tn.tn_live -> crash st tn outage_ns
        | _ -> false)
    | Op.Flip_faults p -> flip st p
    | Op.Swap_pressure (slot, n) -> (
        match tenant st slot with
        | Some tn when tn.tn_live -> swap_pressure st tn n
        | _ -> false)
    | Op.Quota_exhaust slot -> (
        match tenant st slot with
        | Some tn when tn.tn_live && not tn.tn_crashed ->
            quota_exhaust st tn
        | _ -> false)
    | Op.Submit_nc (slot, n) -> (
        match tenant st slot with
        | Some tn when tn.tn_live -> submit_nc st tn n
        | _ -> false)
    | Op.Submit_qa (slot, k) -> (
        match tenant st slot with
        | Some tn when tn.tn_live -> submit_qa st tn k
        | _ -> false)
  in
  if applied then st.st_applied <- st.st_applied + 1

(* --- invariants ----------------------------------------------------------- *)

(* Residency conservation, cheap enough to run continuously between
   ops: every live tenant resident on exactly one device, and that
   device agrees with the pool's own index. *)
let check_residency_live st =
  let pool = the_pool st in
  let devices = List.init (Pool.n_devices pool) Fun.id in
  List.find_map
    (fun tn ->
      let homes =
        List.filter
          (fun d -> List.mem tn.tn_vm_id (Pool.resident pool d))
          devices
      in
      match (homes, Pool.device_of pool ~vm_id:tn.tn_vm_id) with
      | [ d ], Some d' when d = d' -> None
      | _ ->
          Some
            (Violation
               ( Conservation,
                 Printf.sprintf
                   "vm%d resident on %d devices (index says %s)"
                   tn.tn_vm_id (List.length homes)
                   (match Pool.device_of pool ~vm_id:tn.tn_vm_id with
                   | Some d -> string_of_int d
                   | None -> "-") )))
    (live_tenants st)

(* Retired tenants must leave nothing behind: no pool residency, no
   server entry, no router conn, no IOMMU pins, no recorder, and (armed
   obs) no open spans. *)
let check_residency_retired st =
  let pool = the_pool st in
  let devices = List.init (Pool.n_devices pool) Fun.id in
  List.find_map
    (fun tn ->
      let vm_id = tn.tn_vm_id in
      let leak =
        if List.exists (fun d -> List.mem vm_id (Pool.resident pool d)) devices
        then Some "pool residency"
        else if
          List.exists
            (fun d ->
              Option.is_some (Server.vm_ctx (Pool.server pool d) ~vm_id))
            devices
        then Some "server entry"
        else if Router.attached st.st_host.Host.router ~vm_id then
          Some "router conn"
        else if Hashtbl.mem st.st_host.Host.iommus vm_id then
          Some "IOMMU pins"
        else if Option.is_some (Host.recorder st.st_host ~vm_id) then
          Some "record log"
        else if
          match st.st_host.Host.obs with
          | Some o -> Obs.vm_in_flight o ~vm:vm_id > 0
          | None -> false
        then Some "open spans"
        else None
      in
      Option.map
        (fun what ->
          Violation
            ( Residency,
              Printf.sprintf "retired vm%d leaked its %s" vm_id what ))
        leak)
    (List.filter (fun t -> not t.tn_live) st.st_tenants)

let check_seq_ledger st =
  List.find_map
    (fun tn ->
      let inflight =
        Router.in_flight_calls st.st_host.Host.router ~vm_id:tn.tn_vm_id
      in
      if inflight > 0 then
        Some
          (Violation
             ( Seq_ledger,
               Printf.sprintf "vm%d still owes %d replies after quiesce (seqs %s)"
                 tn.tn_vm_id inflight
                 (String.concat ","
                    (List.map string_of_int
                       (Router.in_flight_seqs st.st_host.Host.router
                          ~vm_id:tn.tn_vm_id))) ))
      else
        let gs = Report.guest_stats tn.tn_guest in
        if gs.Report.gs_timeouts > 0 then
          Some
            (Violation
               ( Seq_ledger,
                 Printf.sprintf "vm%d lost %d calls to retry exhaustion"
                   tn.tn_vm_id gs.Report.gs_timeouts ))
        else None)
    (live_tenants st)

(* The router charges each call once, however many copies of it arrive:
   never more calls than the guest's stub issued. *)
let check_accounting st =
  List.find_map
    (fun tn ->
      let gs = Report.guest_stats tn.tn_guest in
      let issued = gs.Report.gs_sync_calls + gs.Report.gs_async_calls in
      if gs.Report.gs_api_calls > issued then
        Some
          (Violation
             ( Accounting,
               Printf.sprintf "vm%d charged for %d calls, its guest issued %d"
                 tn.tn_vm_id gs.Report.gs_api_calls issued ))
      else None)
    (live_tenants st)

let check_conservation st =
  let guests = List.map (fun t -> t.tn_guest) (live_tenants st) in
  let r = Report.snapshot st.st_host guests in
  let dev_sum =
    List.fold_left (fun a d -> a + d.Report.dv_executed) 0 r.Report.r_devices
  in
  if dev_sum <> r.Report.r_executed then
    Some
      (Violation
         ( Conservation,
           Printf.sprintf "executed %d != per-device sum %d"
             r.Report.r_executed dev_sum ))
  else if Pool.retires (the_pool st) <> st.st_retired then
    Some
      (Violation
         ( Conservation,
           Printf.sprintf "pool counted %d retires, scenario %d"
             (Pool.retires (the_pool st)) st.st_retired ))
  else check_residency_live st

let check_isolation st =
  List.find_map
    (fun tn ->
      if tn.tn_faulty then None
      else if tn.tn_bad_result then
        Some
          (Violation
             ( Isolation,
               Printf.sprintf "clean vm%d computed wrong sums" tn.tn_vm_id ))
      else
        match tn.tn_failures with
        | [] -> None
        | m :: _ ->
            Some
              (Violation
                 ( Isolation,
                   Printf.sprintf "clean vm%d hit an API failure: %s"
                     tn.tn_vm_id m )))
    st.st_tenants

(* --- the run -------------------------------------------------------------- *)

(* Virtual-time budget for the drain after the last op.  Generous on
   purpose: the full retry schedule of a lost call (12 doubling
   attempts from 20 ms, +25% jitter) must fit, so a stack that heals
   within its design envelope quiesces and one that cannot is reported
   as a hang rather than as a spurious timeout. *)
let quiesce_budget_ns = Time.s 400
let quiesce_tick_ns = Time.ms 5

(* Debug aid for corpus triage: AVA_CAMPAIGN_TRACE=1 arms obs by default
   and dumps its spans to stderr after the run — for humans staring at
   a single replay. *)
let debug_trace () = Sys.getenv_opt "AVA_CAMPAIGN_TRACE" <> None

let dump_spans st o =
  List.iter
    (fun (s : Obs.span) ->
      Printf.eprintf "span vm%d seq=%d %s dev%d open=%d close=%d status=%d\n"
        s.sp_vm s.sp_seq s.sp_fn s.sp_device s.sp_open s.sp_close s.sp_status)
    (Obs.spans o);
  List.iter
    (fun tn ->
      Printf.eprintf "vm%d in flight: %d\n" tn.tn_vm_id
        (Obs.vm_in_flight o ~vm:tn.tn_vm_id))
    (List.rev st.st_tenants)

let run ?(obs = debug_trace ()) ?sabotage config trace =
  let e = Engine.create () in
  let obs_reg = if obs then Some (Obs.create ()) else None in
  let host =
    Host.create_cl_host ~devices:config.sc_devices
      ~placement:config.sc_placement ~sva:config.sc_sva
      ?doorbell:
        (if config.sc_doorbell then Some Transport.default_doorbell else None)
      ~transfer_cache:config.sc_cache
      ~devfaults:
        (make_devfaults (Int64.to_int (Int64.logand config.sc_seed 0xffffffL)))
      ~tdr:Host.default_tdr ?obs:obs_reg e
  in
  let st =
    {
      st_engine = e;
      st_host = host;
      st_config = config;
      st_rng = Rng.create config.sc_seed;
      st_tenants = [];
      st_profile = config.sc_faults;
      st_applied = 0;
      st_crash_exn = None;
      st_retired = 0;
      st_nc_host = None;
      st_qa_host = None;
    }
  in
  let verdict = ref Pass in
  Engine.spawn e (fun () ->
      (try
         List.iter
           (fun op ->
             if !verdict = Pass then begin
               apply st op;
               (* Continuous check: residency must be conserved at
                  every step, not just at quiesce. *)
               match check_residency_live st with
               | Some v -> verdict := v
               | None -> ()
             end)
           trace;
         (if !verdict = Pass then
            match sabotage with
            | Some Crash_worker -> (
                (* Self-test: a deliberately broken stack — one tenant's
                   worker dies mid-workload and never comes back.  Its
                   call exhausts the retry budget; the ledger and
                   isolation checks must catch it or the harness is
                   blind. *)
                ignore (admit st);
                match st.st_tenants with
                | tn :: _ ->
                    ignore (submit st tn (Op.Vec_add 64));
                    Engine.delay (Time.us 50);
                    (match current_server st tn.tn_vm_id with
                    | Some srv -> Server.crash srv ~vm_id:tn.tn_vm_id
                    | None -> ());
                    ()
                | [] -> ())
            | Some Overcharge -> (
                (* Self-test: a router that charged one call twice. *)
                match live_tenants st with
                | tn :: _ -> Ava_hv.Vm.charge_call tn.tn_guest.Host.g_vm
                | [] -> ())
            | None -> ());
         (* Quiesce: wait out in-flight work under a virtual deadline;
            a stack that cannot drain is a verdict, not a wedged
            test run. *)
         let deadline = Engine.now e + quiesce_budget_ns in
         let pending () =
           List.exists (fun t -> t.tn_pending > 0) st.st_tenants
         in
         (* The fleet is quiesced only when no submission is running AND
            the router owes no replies.  The second clause matters:
            release calls are fire-and-forget at the stub, so a
            workload can complete while its async tail (a dropped
            release and the calls parked behind it at the server) is
            still healing through retransmission — checking the seq
            ledger at that instant reports a violation that cures
            itself milliseconds later.  A ledger that never drains is
            caught at the deadline by the same check. *)
         let owed () =
           List.exists
             (fun t ->
               t.tn_live
               && Router.in_flight_calls st.st_host.Host.router
                    ~vm_id:t.tn_vm_id
                  > 0)
             st.st_tenants
         in
         while (pending () || owed ()) && Engine.now e < deadline do
           Engine.delay quiesce_tick_ns
         done;
         if !verdict = Pass then
           if pending () then
             verdict :=
               Hang
                 (Printf.sprintf "%d submissions still in flight at deadline"
                    (List.fold_left
                       (fun a t -> a + t.tn_pending)
                       0 st.st_tenants))
           else begin
             Pool.stop (the_pool st);
             let checks =
               [
                 (fun () ->
                   Option.map
                     (fun m ->
                       Violation
                         (No_crash, "unexpected exception: " ^ m))
                     st.st_crash_exn);
                 (fun () -> check_seq_ledger st);
                 (fun () -> check_accounting st);
                 (fun () -> check_conservation st);
                 (fun () -> check_residency_retired st);
                 (fun () -> check_isolation st);
               ]
             in
             match List.find_map (fun c -> c ()) checks with
             | Some v -> verdict := v
             | None -> ()
           end
       with exn ->
         verdict :=
           Violation
             ( No_crash,
               "driver aborted by exception: " ^ Printexc.to_string exn )))
  ;
  (try Engine.run e
   with exn ->
     if !verdict = Pass then
       verdict :=
         Violation (No_crash, "engine aborted: " ^ Printexc.to_string exn));
  if debug_trace () then Option.iter (dump_spans st) obs_reg;
  let executed =
    let pool = host.Host.cl_pool in
    List.fold_left
      (fun a d -> a + Server.executed (Pool.server pool d.Pool.ds_id))
      0 (Pool.stats pool)
  in
  {
    oc_verdict = !verdict;
    oc_final_ns = Engine.now e;
    oc_executed = executed;
    oc_applied = st.st_applied;
  }

let check_twin config trace =
  let plain = run ~obs:false config trace in
  let armed = run ~obs:true config trace in
  if
    plain.oc_final_ns = armed.oc_final_ns
    && plain.oc_executed = armed.oc_executed
    && plain.oc_verdict = armed.oc_verdict
  then Pass
  else
    Violation
      ( Obs_twin,
        Printf.sprintf
          "disarmed (t=%d, executed=%d) != armed (t=%d, executed=%d)"
          plain.oc_final_ns plain.oc_executed armed.oc_final_ns
          armed.oc_executed )
