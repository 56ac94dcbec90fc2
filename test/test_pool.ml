(* Device-pool suite: placement policies, per-backend scheduling, live
   migration between pool devices, device-loss evacuation, and
   migration-driven rebalancing.

   The contract under test (ISSUE tentpole): a pooled host owns N
   simulated GPUs, each fronted by its own API server and router
   dispatch lane.  Remoted VMs are placed onto devices by a pluggable
   policy, can be live-migrated (record/replay plus in-flight queue
   re-steering), and are evacuated onto survivors when a device is
   lost.  Same-seed runs are bit-identical; the default one-device pool
   is bit-identical in virtual time to the pre-pool single-GPU host.

   [AVA_CHAOS_SEED] perturbs the evacuation schedule (the CI pool job
   sweeps a small seed matrix); the determinism and containment
   assertions hold for any seed. *)

module Transport = Ava_transport.Transport
module Policy = Ava_remoting.Policy
module Router = Ava_remoting.Router
module Server = Ava_remoting.Server
module Stub = Ava_remoting.Stub
module Swap = Ava_remoting.Swap
module Wire = Ava_remoting.Wire
module Message = Ava_remoting.Message
module Migrate = Ava_remoting.Migrate
module Plan = Ava_codegen.Plan
module Pool = Ava_pool.Pool

open Ava_sim
open Ava_device
open Ava_core
open Ava_workloads
open Ava_simcl.Types

let chaos_seed = Ava_campaign.Chaos_env.seed ~default:42

let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024
let bench name = Option.get (Rodinia.find name)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error %s" (error_to_string e)

let the_pool (host : Host.cl_host) = host.Host.cl_pool

(* The reference guest program: upload two vectors, add on the device,
   read back; returns whether the device computed the right sums. *)
let vec_add_ok api n = Clutil.vec_add api ~n ~launches:1 ~release:false

(* --- WFQ weight changes (satellite: live re-tagging) ---------------------- *)

(* The scheduler as a specification: every pop visits every flow, and
   the flow holding the smallest head tag wins, the lowest flow id
   among equal tags. *)
module Ref_wfq = struct
  type flow = {
    mutable weight : float;
    mutable last_tag : float;
    mutable items : (float * float * int) list;  (** tag, cost, payload *)
  }

  type t = { flows : (int, flow) Hashtbl.t; mutable vtime : float }

  let fmax (a : float) b = if b > a then b else a
  let create () = { flows = Hashtbl.create 8; vtime = 0.0 }

  let add_flow t id weight =
    Hashtbl.replace t.flows id { weight; last_tag = 0.0; items = [] }

  let push t id cost p =
    let f = Hashtbl.find t.flows id in
    let tag = fmax t.vtime f.last_tag +. (fmax 1.0 cost /. f.weight) in
    f.last_tag <- tag;
    f.items <- f.items @ [ (tag, cost, p) ]

  let set_weight t id weight =
    let f = Hashtbl.find t.flows id in
    f.weight <- weight;
    if f.items <> [] then begin
      let last = ref t.vtime in
      f.items <-
        List.map
          (fun (_, cost, p) ->
            let tag = !last +. (fmax 1.0 cost /. weight) in
            last := tag;
            (tag, cost, p))
          f.items;
      f.last_tag <- !last
    end

  let remove_flow t id =
    let f = Hashtbl.find t.flows id in
    Hashtbl.remove t.flows id;
    List.map (fun (_, cost, p) -> (p, cost)) f.items

  let pop t =
    let best = ref None in
    Hashtbl.iter
      (fun id f ->
        match (f.items, !best) with
        | [], _ -> ()
        | (tag, _, _) :: _, Some (best_id, _, best_tag)
          when not (tag < best_tag || (tag = best_tag && id < best_id)) ->
            ()
        | (tag, _, _) :: _, _ -> best := Some (id, f, tag))
      t.flows;
    Option.map
      (fun (id, f, tag) ->
        let p = match f.items with (_, _, p) :: _ -> p | [] -> assert false in
        f.items <- List.tl f.items;
        t.vtime <- fmax t.vtime tag;
        (id, p))
      !best
end

type wfq_op =
  | W_add of int * float
  | W_push of int * float
  | W_pop
  | W_weight of int * float
  | W_remove of int

(* Few flows, weights and costs, so that finish tags often tie. *)
let wfq_op =
  let id = QCheck.Gen.int_range 0 5
  and weight = QCheck.Gen.oneofl [ 0.5; 1.0; 2.0 ]
  and cost = QCheck.Gen.oneofl [ 0.5; 1.0; 2.0; 4.0 ] in
  QCheck.make
    ~print:(function
      | W_add (i, w) -> Printf.sprintf "add %d %g" i w
      | W_push (i, c) -> Printf.sprintf "push %d %g" i c
      | W_pop -> "pop"
      | W_weight (i, w) -> Printf.sprintf "weight %d %g" i w
      | W_remove i -> Printf.sprintf "remove %d" i)
    QCheck.Gen.(
      frequency
        [
          (2, map2 (fun i w -> W_add (i, w)) id weight);
          (6, map2 (fun i c -> W_push (i, c)) id cost);
          (5, return W_pop);
          (1, map2 (fun i w -> W_weight (i, w)) id weight);
          (1, map (fun i -> W_remove i) id);
        ])

(* Run the ops on both schedulers, then drain both: every pop and every
   removed flow's backlog must agree.  The flow handles live in [flows],
   as a router keeps them; ops naming an unknown flow, and adds of a
   live one, are skipped. *)
let wfq_matches_reference ops =
  let q = Policy.Wfq.create () and r = Ref_wfq.create () in
  let flows = Hashtbl.create 8 and next = ref 0 in
  let pop () =
    if Policy.Wfq.backlog q = 0 then Ref_wfq.pop r = None
    else Some (Policy.Wfq.pop_payload q) = Ref_wfq.pop r
  in
  let live i = Hashtbl.mem flows i in
  let step = function
    | W_add (i, w) when not (live i) ->
        Hashtbl.replace flows i (Policy.Wfq.add_flow q ~flow_id:i ~weight:w);
        Ref_wfq.add_flow r i w;
        true
    | W_push (i, c) when live i ->
        incr next;
        Policy.Wfq.push q (Hashtbl.find flows i) ~cost:c (i, !next);
        Ref_wfq.push r i c !next;
        true
    | W_weight (i, w) when live i ->
        Policy.Wfq.set_weight q (Hashtbl.find flows i) ~weight:w;
        Ref_wfq.set_weight r i w;
        true
    | W_remove i when live i ->
        let f = Hashtbl.find flows i in
        Hashtbl.remove flows i;
        List.map (fun ((_, p), c) -> (p, c)) (Policy.Wfq.remove_flow q f)
        = Ref_wfq.remove_flow r i
    | W_add _ | W_push _ | W_weight _ | W_remove _ -> true
    | W_pop -> pop ()
  in
  let rec drain () =
    if Policy.Wfq.backlog q = 0 then Ref_wfq.pop r = None
    else pop () && drain ()
  in
  List.for_all step ops && drain ()

let wfq_tests =
  [
    Alcotest.test_case "set_weight re-tags a backlogged flow" `Quick (fun () ->
        let q = Policy.Wfq.create () in
        let f1 = Policy.Wfq.add_flow q ~flow_id:1 ~weight:1.0 in
        let f2 = Policy.Wfq.add_flow q ~flow_id:2 ~weight:1.0 in
        for i = 1 to 4 do
          Policy.Wfq.push q f1 ~cost:1.0 (Printf.sprintf "a%d" i)
        done;
        for i = 1 to 3 do
          Policy.Wfq.push q f2 ~cost:1.0 (Printf.sprintf "b%d" i)
        done;
        (* Both flows carry finish tags 1,2,3(,4).  Quadrupling flow 2's
           weight must re-tag its backlog (0.25, 0.5, 0.75), not let it
           drain at the old rate: the next three pops are all flow 2. *)
        Policy.Wfq.set_weight q f2 ~weight:4.0;
        Alcotest.(check (float 0.0)) "weight visible" 4.0
          (Policy.Wfq.flow_weight f2);
        let order = List.init 7 (fun _ -> Policy.Wfq.pop_payload q) in
        Alcotest.(check (list string)) "re-tagged flow served first"
          [ "b1"; "b2"; "b3"; "a1"; "a2"; "a3"; "a4" ] order;
        Alcotest.(check int) "drained" 0 (Policy.Wfq.backlog q));
    Alcotest.test_case "set_weight preserves FIFO within the flow" `Quick
      (fun () ->
        let q = Policy.Wfq.create () in
        let f = Policy.Wfq.add_flow q ~flow_id:1 ~weight:1.0 in
        List.iter
          (fun p -> Policy.Wfq.push q f ~cost:2.0 p)
          [ "first"; "second"; "third" ];
        Policy.Wfq.set_weight q f ~weight:0.5;
        let order = List.init 3 (fun _ -> Policy.Wfq.pop_payload q) in
        Alcotest.(check (list string)) "order kept"
          [ "first"; "second"; "third" ] order);
    Alcotest.test_case "remove_flow hands back the backlog in order" `Quick
      (fun () ->
        let q = Policy.Wfq.create () in
        let f1 = Policy.Wfq.add_flow q ~flow_id:1 ~weight:1.0 in
        let f2 = Policy.Wfq.add_flow q ~flow_id:2 ~weight:1.0 in
        Policy.Wfq.push q f1 ~cost:3.0 "x";
        Policy.Wfq.push q f1 ~cost:5.0 "y";
        Policy.Wfq.push q f2 ~cost:1.0 "z";
        let drained = Policy.Wfq.remove_flow q f1 in
        Alcotest.(check (list (pair string (float 0.0))))
          "payloads and costs, FIFO"
          [ ("x", 3.0); ("y", 5.0) ]
          drained;
        Alcotest.(check int) "backlog excludes removed items" 1
          (Policy.Wfq.backlog q);
        Alcotest.(check string) "other flow unaffected" "z"
          (Policy.Wfq.pop_payload q));
    Alcotest.test_case "equal tags pop the lowest flow id first" `Quick
      (fun () ->
        let q = Policy.Wfq.create () in
        (* Added in descending id order, so neither the order of
           addition nor of backlogging decides the tie. *)
        let flows =
          List.map (fun id -> (id, Policy.Wfq.add_flow q ~flow_id:id ~weight:1.0))
            [ 5; 3; 2; 1 ]
        in
        List.iter (fun (id, f) -> Policy.Wfq.push q f ~cost:1.0 id) flows;
        Alcotest.(check (list int)) "ascending ids" [ 1; 2; 3; 5 ]
          (List.init 4 (fun _ -> Policy.Wfq.pop_payload q)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"pops match a scheduler that scans every flow" ~count:300
         QCheck.(list_of_size Gen.(int_range 1 150) wfq_op)
         wfq_matches_reference);
  ]

(* --- router attach and detach --------------------------------------------- *)

let router_tests =
  [
    Alcotest.test_case "attaching an attached vm raises, changes nothing"
      `Quick (fun () ->
        let e = Engine.create () in
        let host = Host.create_cl_host e in
        let guest = Host.add_cl_vm host ~name:"twice" in
        let vm = guest.Host.g_vm and router = host.Host.router in
        let _, guest_side = Transport.direct e
        and server_side, _ = Transport.direct e in
        Alcotest.check_raises "invalid"
          (Invalid_argument
             (Printf.sprintf "Router.attach_vm: vm %d is attached"
                (Ava_hv.Vm.id vm)))
          (fun () ->
            ignore (Router.attach_vm ~weight:2.0 router vm ~guest_side ~server_side));
        (* The conn the router holds is still the one the guest talks
           through: its seq window sees the calls. *)
        Engine.run_process e (fun () ->
            Alcotest.(check bool) "vec-add" true (vec_add_ok guest.Host.g_api 256));
        Alcotest.(check bool) "window tracks the guest" true
          (Router.window router ~vm_id:(Ava_hv.Vm.id vm) > 0));
    Alcotest.test_case "retire detaches the router conn" `Quick (fun () ->
        let e = Engine.create () in
        let host = Host.create_cl_host e in
        let guest = Host.add_cl_vm host ~name:"leaver" in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm and router = host.Host.router in
        let module CL = (val guest.Host.g_api) in
        Engine.run_process e (fun () ->
            let s = Clutil.open_session guest.Host.g_api in
            Alcotest.(check bool) "attached" true (Router.attached router ~vm_id);
            Alcotest.(check bool) "retired" true (Host.retire_cl_vm host ~vm_id);
            Alcotest.(check bool) "no conn" false (Router.attached router ~vm_id);
            let unknown fn f =
              Alcotest.check_raises fn
                (Invalid_argument ("Router." ^ fn ^ ": unknown vm")) f
            in
            unknown "set_weight" (fun () -> Router.set_weight router ~vm_id ~weight:2.0);
            unknown "breaker_info" (fun () -> ignore (Router.breaker_info router ~vm_id));
            unknown "requeue_in_flight" (fun () ->
                ignore (Router.requeue_in_flight router ~vm_id));
            unknown "detach_vm" (fun () -> Router.detach_vm router ~vm_id);
            (* A late frame on the retired VM's link is dropped
               unpoliced; its call still counts as one the guest
               issued. *)
            let forwarded = Router.forwarded router
            and calls = Ava_hv.Vm.api_calls guest.Host.g_vm in
            ignore (CL.clFlush s.Clutil.queue);
            Engine.delay (Time.ms 1);
            Alcotest.(check int) "late frame dropped" 1 (Router.dropped router);
            Alcotest.(check int) "nothing forwarded" forwarded
              (Router.forwarded router);
            Alcotest.(check int) "call counted" (calls + 1)
              (Ava_hv.Vm.api_calls guest.Host.g_vm)));
  ]

(* --- placement ------------------------------------------------------------ *)

let placement_tests =
  [
    Alcotest.test_case "round-robin spreads 8 VMs over 4 devices" `Quick
      (fun () ->
        let e = Engine.create () in
        let host =
          Host.create_cl_host ~devices:4 ~placement:Pool.Round_robin e
        in
        let pool = the_pool host in
        let guests =
          List.init 8 (fun i ->
              Host.add_cl_vm host ~name:(Printf.sprintf "vm%d" i))
        in
        List.iteri
          (fun i g ->
            Alcotest.(check (option int))
              (Printf.sprintf "vm%d device" i)
              (Some (i mod 4))
              (Pool.device_of pool ~vm_id:(Ava_hv.Vm.id g.Host.g_vm)))
          guests;
        let results = Array.make 8 false in
        List.iteri
          (fun i g ->
            Engine.spawn e
              (fun () -> results.(i) <- vec_add_ok g.Host.g_api 1024))
          guests;
        Engine.run e;
        Array.iteri
          (fun i r ->
            Alcotest.(check bool) (Printf.sprintf "vm%d result" i) true r)
          results;
        List.iter
          (fun (ds : Pool.device_stats) ->
            Alcotest.(check int)
              (Printf.sprintf "dev%d residents" ds.Pool.ds_id)
              2
              (List.length ds.Pool.ds_resident);
            Alcotest.(check bool)
              (Printf.sprintf "dev%d ran kernels" ds.Pool.ds_id)
              true (ds.Pool.ds_kernels > 0))
          (Pool.stats pool));
    Alcotest.test_case "least-loaded tracks accumulated device time" `Quick
      (fun () ->
        let e = Engine.create () in
        let host =
          Host.create_cl_host ~devices:2 ~placement:Pool.Least_loaded e
        in
        let pool = the_pool host in
        let dev_of g = Pool.device_of pool ~vm_id:(Ava_hv.Vm.id g.Host.g_vm) in
        let g1 = Host.add_cl_vm host ~name:"g1" in
        Alcotest.(check (option int)) "empty pool ties to dev0" (Some 0)
          (dev_of g1);
        Engine.run_process e (fun () ->
            (bench "bfs").Rodinia.run g1.Host.g_api);
        Alcotest.(check bool) "dev0 accrued load" true (Pool.load_of pool 0 > 0);
        let g2 = Host.add_cl_vm host ~name:"g2" in
        Alcotest.(check (option int)) "g2 avoids the loaded device" (Some 1)
          (dev_of g2);
        Engine.run_process e (fun () ->
            (bench "bfs").Rodinia.run g2.Host.g_api;
            (bench "bfs").Rodinia.run g2.Host.g_api);
        Alcotest.(check bool) "dev1 now hotter" true
          (Pool.load_of pool 1 > Pool.load_of pool 0);
        let g3 = Host.add_cl_vm host ~name:"g3" in
        Alcotest.(check (option int)) "g3 lands on the cooler device" (Some 0)
          (dev_of g3));
    Alcotest.test_case "bin-pack best-fits declared footprints" `Quick
      (fun () ->
        let e = Engine.create () in
        let host = Host.create_cl_host ~devices:2 ~placement:Pool.Bin_pack e in
        let pool = the_pool host in
        (* 8 GiB per device (gtx1080 preset).  5G -> dev0; the second 5G
           no longer fits there -> dev1; 2G best-fits dev0 (equal slack,
           lowest id); 4G fits nowhere -> least-committed fallback. *)
        let place fp name =
          let g = Host.add_cl_vm host ~footprint:fp ~name in
          Option.get (Pool.device_of pool ~vm_id:(Ava_hv.Vm.id g.Host.g_vm))
        in
        Alcotest.(check int) "first 5G" 0 (place (gib 5) "a");
        Alcotest.(check int) "second 5G spills" 1 (place (gib 5) "b");
        Alcotest.(check int) "2G best-fit" 0 (place (gib 2) "c");
        Alcotest.(check int) "oversubscribed 4G falls back" 1
          (place (gib 4) "d");
        let s = Pool.stats pool in
        Alcotest.(check (list int)) "declared footprints tracked"
          [ gib 7; gib 9 ]
          (List.map (fun d -> d.Pool.ds_footprint) s));
    Alcotest.test_case "explicit pin overrides the policy" `Quick (fun () ->
        let e = Engine.create () in
        let host =
          Host.create_cl_host ~devices:3 ~placement:Pool.Round_robin e
        in
        let pool = the_pool host in
        let g = Host.add_cl_vm host ~device:2 ~name:"pinned" in
        Alcotest.(check (option int)) "pinned" (Some 2)
          (Pool.device_of pool ~vm_id:(Ava_hv.Vm.id g.Host.g_vm)));
    Alcotest.test_case "pass-through guest pins a pool device" `Quick
      (fun () ->
        let e = Engine.create () in
        let host =
          Host.create_cl_host ~devices:2 ~placement:Pool.Round_robin e
        in
        let pool = the_pool host in
        let g =
          Host.add_cl_vm host ~technique:Host.Passthrough ~device:1 ~name:"pt"
        in
        (match
           Ava_hv.Hypervisor.attachment host.Host.hv
             ~vm_id:(Ava_hv.Vm.id g.Host.g_vm)
         with
        | Some gpu ->
            Alcotest.(check bool) "dedicated device 1" true
              (gpu == Pool.gpu pool 1)
        | None -> Alcotest.fail "attachment not recorded");
        Engine.run_process e (fun () ->
            Alcotest.(check bool) "native path works" true
              (vec_add_ok g.Host.g_api 256));
        Alcotest.(check bool) "work landed on device 1" true
          (Gpu.kernels_executed (Pool.gpu pool 1) > 0);
        Alcotest.(check int) "device 0 untouched" 0
          (Gpu.kernels_executed (Pool.gpu pool 0)));
    Alcotest.test_case "argmin keeps the first minimum" `Quick (fun () ->
        Alcotest.(check (pair string int)) "earlier of two minima"
          ("b", 1)
          (Pool.argmin snd [ ("a", 3); ("b", 1); ("c", 1); ("d", 2) ]);
        Alcotest.(check (pair string int)) "singleton" ("a", 5)
          (Pool.argmin snd [ ("a", 5) ]);
        Alcotest.check_raises "empty list" (Invalid_argument "Pool.argmin: empty")
          (fun () -> ignore (Pool.argmin Fun.id [])));
  ]

(* --- identity and determinism --------------------------------------------- *)

let timed_bfs_run mk_host =
  let e = Engine.create () in
  let host = mk_host e in
  let guest = Host.add_cl_vm host ~name:"guest" in
  Engine.run_process e (fun () ->
      (bench "bfs").Rodinia.run guest.Host.g_api;
      Engine.now e)

let identity_tests =
  [
    Alcotest.test_case "single-device pool is bit-identical to the classic \
                        host" `Quick (fun () ->
        (* Every host is a pool.  The pre-pool single-GPU host ran this
           guest to 28,020,952 ns of virtual time; the default host — a
           one-device pool — must match it to the nanosecond. *)
        let default = timed_bfs_run (fun e -> Host.create_cl_host e) in
        Alcotest.(check int) "default host is the classic host" 28_020_952
          default;
        let explicit =
          timed_bfs_run (fun e ->
              Host.create_cl_host ~devices:1 ~placement:Pool.Round_robin e)
        in
        Alcotest.(check int) "explicit devices:1 bit-identical" default
          explicit);
    Alcotest.test_case "same seed, same multi-device run" `Quick (fun () ->
        let run () =
          let e = Engine.create () in
          let host =
            Host.create_cl_host ~devices:4 ~placement:Pool.Least_loaded e
          in
          let pool = the_pool host in
          let guests =
            List.init 8 (fun i ->
                Host.add_cl_vm host ~name:(Printf.sprintf "vm%d" i))
          in
          List.iteri
            (fun i g ->
              Engine.spawn e
                (fun () -> ignore (vec_add_ok g.Host.g_api (256 * (i + 1)))))
            guests;
          Engine.run e;
          (Engine.now e, Pool.stats pool)
        in
        let t1, s1 = run () in
        let t2, s2 = run () in
        Alcotest.(check int) "virtual end time identical" t1 t2;
        Alcotest.(check bool) "per-device stats identical" true (s1 = s2));
  ]

(* --- live migration ------------------------------------------------------- *)

(* A two-device pool of a two-call mini API, for pinning exactly which
   calls a migration re-runs.  Both calls take one int; the handlers
   count their executions per device and argument ([runs]) and answer
   through [handler ~dev value].  The transfer only hands the record
   log over and returns at once, so the handoff's timing is the drain
   window's alone.  [guest_link] is the router-to-guest hop's cost
   (default free). *)
type mini = {
  mn_engine : Engine.t;
  mn_pool : unit Pool.t;
  mn_router : Router.t;
  mn_stub : Stub.t;
  mn_vm_id : int;
  mn_runs : (int, int) Hashtbl.t array;
}

let mini_plan () =
  let src =
    {|
api("mini");
#include "mini.h"
type(st) { success(OK); }
st call(int value) { sync; record(global_config); }
st fire(int value) { async; record(global_config); }
|}
  in
  let header =
    "#define OK 0\ntypedef int st;\nst call(int value);\nst fire(int value);"
  in
  let resolve = function "mini.h" -> Some header | _ -> None in
  match Ava_spec.Parser.parse ~resolve_include:resolve src with
  | Error e -> Alcotest.failf "mini spec: %s" e.Ava_spec.Parser.message
  | Ok spec -> (
      match Plan.compile spec with
      | Ok p -> p
      | Error e -> Alcotest.failf "mini plan: %s" e)

let mini_pool ?(guest_link = Transport.free_cost) ~handler () =
  let e = Engine.create () in
  let plan = mini_plan () in
  let virt = Timing.default_virt in
  let hv = Ava_hv.Hypervisor.create ~virt () in
  let router = Router.create e ~virt ~plan in
  let runs = Array.init 2 (fun _ -> Hashtbl.create 4) in
  let server dev =
    let s = Server.create ~device_id:dev e ~plan ~make_state:(fun ~vm_id:_ -> ()) in
    let run _ () args =
      let v = Option.get (Wire.to_int (List.hd args)) in
      Hashtbl.replace runs.(dev) v
        (1 + Option.value ~default:0 (Hashtbl.find_opt runs.(dev) v));
      handler ~dev v
    in
    Server.register s "call" run;
    Server.register s "fire" run;
    s
  in
  let phys =
    {
      Pool.ph_cap = Pool.Cap_gpu;
      ph_busy_ns = (fun () -> 0);
      ph_kernels = (fun () -> 0);
      ph_capacity = gib 1;
      ph_wedged_by = (fun () -> None);
      ph_kill = ignore;
      ph_gpu = None;
    }
  in
  let transfer ~vm_id ~src ~dst =
    Server.hand_over_log src.Pool.dev_server ~into:dst.Pool.dev_server ~vm_id;
    0
  in
  let pool =
    Pool.create e ~router ~placement:Pool.Round_robin ~transfer
      [ (phys, server 0); (phys, server 1) ]
  in
  let vm = Ava_hv.Hypervisor.create_vm hv ~name:"mini" in
  let vm_id = Ava_hv.Vm.id vm in
  ignore (Pool.place ~device:0 pool ~vm);
  let guest_end, router_guest_end =
    Transport.duplex e ~a_to_b:Transport.free_cost ~b_to_a:guest_link
  in
  let router_server_end, server_end = Transport.direct e in
  ignore (Server.attach_vm (Pool.server pool 0) ~vm_id ~ep:server_end);
  ignore
    (Router.attach_vm router vm ~guest_side:router_guest_end
       ~server_side:router_server_end);
  {
    mn_engine = e;
    mn_pool = pool;
    mn_router = router;
    mn_stub = Stub.create e ~vm_id ~plan ~ep:guest_end;
    mn_vm_id = vm_id;
    mn_runs = runs;
  }

let runs m ~dev v = Option.value ~default:0 (Hashtbl.find_opt m.mn_runs.(dev) v)

let migration_tests =
  [
    Alcotest.test_case "pool migration preserves handles and data" `Quick
      (fun () ->
        let e = Engine.create () in
        let host =
          Host.create_cl_host ~devices:2 ~placement:Pool.Round_robin e
        in
        let pool = the_pool host in
        let guest = Host.add_cl_vm host ~name:"mover" in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        let module CL = (val guest.Host.g_api) in
        Engine.run_process e (fun () ->
            let s = Clutil.open_session guest.Host.g_api in
            let q = s.Clutil.queue in
            let m = ok (CL.clCreateBuffer s.Clutil.context ~size:(mib 1)) in
            let payload =
              Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff))
            in
            ignore
              (ok
                 (CL.clEnqueueWriteBuffer q m ~blocking:true ~offset:64
                    ~src:payload ~wait_list:[] ~want_event:false));
            let k = List.hd (Clutil.build_kernels s [ ("mig", 1e5, 8.0) ]) in
            ok (CL.clFinish q);
            let moved = Pool.migrate_vm pool ~vm_id ~dest:1 in
            Alcotest.(check bool) "payload bytes moved" true (moved >= 4096);
            Alcotest.(check (option int)) "now resident on dev1" (Some 1)
              (Pool.device_of pool ~vm_id);
            (* The guest continues with its old handles on the new
               device: data survived, the kernel handle still works. *)
            let back, _ =
              ok
                (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:64
                   ~size:4096 ~wait_list:[] ~want_event:false)
            in
            Alcotest.(check bytes) "data survived" payload back;
            Clutil.launch s k ~global:256 ~local:16;
            ok (CL.clFinish q);
            Alcotest.(check bool) "kernel ran on the destination" true
              (Gpu.kernels_executed (Pool.gpu pool 1) > 0);
            Alcotest.(check int) "one migration counted" 1
              (Pool.migrations pool);
            Alcotest.(check int) "flow re-steered" 1
              (Router.resteered host.Host.router)));
    Alcotest.test_case "replay onto a second device with live swap state"
      `Quick (fun () ->
        (* Silo.transfer's replay onto a different destination
           device while the source silo has live swap state — evicted
           buffers must be snapshot/restored and the primary objects
           (context, queue, kernel, buffers) remapped to their original
           handles.  The VM's swap entries leave the source device with
           it. *)
        let e = Engine.create () in
        let host = Host.create_cl_host ~devices:2 ~swap_capacity:(mib 8) e in
        let pool = the_pool host in
        let guest = Host.add_cl_vm host ~device:0 ~name:"swapper" in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        let module CL = (val guest.Host.g_api) in
        Engine.run_process e (fun () ->
            let s = Clutil.open_session guest.Host.g_api in
            let q = s.Clutil.queue in
            (* 4 x 4 MiB against an 8 MiB swap budget: live swap state
               with at least two buffers evicted at migration time. *)
            let bufs =
              List.init 4 (fun _ ->
                  ok (CL.clCreateBuffer s.Clutil.context ~size:(mib 4)))
            in
            List.iteri
              (fun idx m ->
                ignore
                  (ok
                     (CL.clEnqueueFillBuffer q m
                        ~pattern:(Char.chr (Char.code 'a' + idx))
                        ~offset:0 ~size:(mib 4) ~wait_list:[]
                        ~want_event:false)))
              bufs;
            let k = List.hd (Clutil.build_kernels s [ ("swapk", 1e5, 8.0) ]) in
            ok (CL.clSetKernelArg k ~index:0 (Arg_mem (List.hd bufs)));
            ok (CL.clFinish q);
            let src_sw = host.Host.swaps.(0) and dst_sw = host.Host.swaps.(1) in
            Alcotest.(check bool) "swap state is live" true
              (Swap.evictions src_sw > 0);
            let copied = Pool.migrate_vm pool ~vm_id ~dest:1 in
            Alcotest.(check int) "all four buffers snapshot and restored"
              (2 * 4 * mib 4) copied;
            Alcotest.(check bool) "replayed the setup calls" true
              (Ava_remoting.Migrate.log_length
                 (Option.get (Host.recorder host ~vm_id))
              >= 6);
            Alcotest.(check int) "source swap forgot the vm" 0
              (Swap.tracked src_sw);
            Alcotest.(check int) "source swap holds no bytes" 0
              (Swap.resident_bytes src_sw);
            Alcotest.(check int) "destination swap tracks the buffers" 4
              (Swap.tracked dst_sw);
            Alcotest.(check bool) "destination swap invariants" true
              (Swap.check_invariants dst_sw);
            (* Old handles address the re-bound objects on the new
               device, evicted content included. *)
            List.iteri
              (fun idx m ->
                let back, _ =
                  ok
                    (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:0
                       ~size:(mib 4) ~wait_list:[] ~want_event:false)
                in
                Alcotest.(check string)
                  (Printf.sprintf "buffer %d content" idx)
                  (String.make (mib 4) (Char.chr (Char.code 'a' + idx)))
                  (Bytes.to_string back))
              bufs;
            Alcotest.(check string) "kernel handle remapped" "swapk"
              (ok (CL.clGetKernelInfo k));
            Clutil.launch s k ~global:256 ~local:16;
            ok (CL.clFinish q);
            Alcotest.(check bool) "kernel ran on the destination" true
              (Gpu.kernels_executed (Pool.gpu pool 1) > 0)));
    Alcotest.test_case "transfer cache stays coherent across migrations"
      `Quick (fun () ->
        (* Satellite regression: the pool left the VM attached (paused
           forever) on the migration source, so the source server kept
           the per-VM content store alive.  A later migration back found
           a stale entry whose store disagreed with the guest digest
           cache — refs the guest believed resident NAKed against stale
           state and the resend loop never healed.  The fix detaches the
           source entry, so every arrival attaches fresh: one NAK per
           cached payload per hop, then refs hit again. *)
        let e = Engine.create () in
        let host =
          Host.create_cl_host ~devices:2 ~placement:Pool.Round_robin
            ~transfer_cache:(mib 4) e
        in
        let pool = the_pool host in
        let guest = Host.add_cl_vm host ~name:"pingpong" in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        let stub = Option.get guest.Host.g_stub in
        let module CL = (val guest.Host.g_api) in
        Engine.run_process e (fun () ->
            let s = Clutil.open_session guest.Host.g_api in
            let q = s.Clutil.queue in
            let m = ok (CL.clCreateBuffer s.Clutil.context ~size:(mib 1)) in
            let payload =
              Bytes.init (64 * 1024) (fun i -> Char.chr ((i * 13) land 0xff))
            in
            let write () =
              ignore
                (ok
                   (CL.clEnqueueWriteBuffer q m ~blocking:true ~offset:0
                      ~src:payload ~wait_list:[] ~want_event:false))
            in
            let readback_ok () =
              let back, _ =
                ok
                  (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:0
                     ~size:(64 * 1024) ~wait_list:[] ~want_event:false)
              in
              Bytes.equal back payload
            in
            (* Populate the cache on dev0: announce once, then refs. *)
            write ();
            write ();
            Alcotest.(check bool) "refs in use before migration" true
              (Stub.cache_refs stub > 0);
            let hops = [ 1; 0; 1 ] in
            List.iteri
              (fun i dest ->
                let src = Option.get (Pool.device_of pool ~vm_id) in
                ignore (Pool.migrate_vm pool ~vm_id ~dest);
                (* The source must not keep a ghost residency — that
                   ghost is exactly what went stale. *)
                Alcotest.(check bool)
                  (Printf.sprintf "hop %d: source entry gone" i)
                  true
                  (Server.vm_ctx (Pool.server pool src) ~vm_id = None);
                let naks_before = Server.naks_sent (Pool.server pool dest) in
                write ();
                write ();
                Alcotest.(check int)
                  (Printf.sprintf "hop %d: one heal NAK, then refs hit" i)
                  1
                  (Server.naks_sent (Pool.server pool dest) - naks_before);
                Alcotest.(check bool)
                  (Printf.sprintf "hop %d: data intact" i)
                  true (readback_ok ()))
              hops;
            Alcotest.(check int) "no watchdog timeouts" 0
              (Stub.timeouts stub)));
    Alcotest.test_case "migration onto a lost device is refused" `Quick
      (fun () ->
        (* A lost device has no silo to replay onto: the move is refused
           like a capability mismatch and the VM stays put, still
           served by its source device. *)
        let e = Engine.create () in
        let host = Host.create_cl_host ~devices:2 e in
        let pool = the_pool host in
        let guest = Host.add_cl_vm ~device:0 host ~name:"stayer" in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        Engine.run_process e (fun () ->
            Pool.kill_device pool ~device:1;
            Alcotest.(check int) "no bytes moved" 0
              (Pool.migrate_vm pool ~vm_id ~dest:1);
            Alcotest.(check (option int)) "still on dev0" (Some 0)
              (Pool.device_of pool ~vm_id);
            Alcotest.(check (list int)) "dead device holds nobody" []
              (Pool.resident pool 1);
            Alcotest.(check int) "no migration counted" 0
              (Pool.migrations pool);
            Alcotest.(check bool) "guest still served" true
              (vec_add_ok guest.Host.g_api 64)));
    Alcotest.test_case "an observer hook leaves migration recording on"
      `Quick (fun () ->
        (* The call hook is an observer: installing one (as a frame
           capture does) must not take over the record log, or the move
           replays nothing and the guest's handles dangle. *)
        let e = Engine.create () in
        let host = Host.create_cl_host ~devices:2 e in
        let pool = the_pool host in
        let observed = ref 0 in
        Server.set_call_hook (Pool.server pool 0) (fun ~vm_id:_ ~status:_ _ ->
            incr observed);
        let guest = Host.add_cl_vm ~device:0 host ~name:"observed" in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        let module CL = (val guest.Host.g_api) in
        Engine.run_process e (fun () ->
            let s = Clutil.open_session guest.Host.g_api in
            let q = s.Clutil.queue in
            let m = ok (CL.clCreateBuffer s.Clutil.context ~size:4096) in
            let payload =
              Bytes.init 4096 (fun i -> Char.chr ((i * 5) land 0xff))
            in
            ignore
              (ok
                 (CL.clEnqueueWriteBuffer q m ~blocking:true ~offset:0
                    ~src:payload ~wait_list:[] ~want_event:false));
            ok (CL.clFinish q);
            Alcotest.(check bool) "observer saw the calls" true (!observed > 0);
            let moved = Pool.migrate_vm pool ~vm_id ~dest:1 in
            Alcotest.(check bool) "buffer bytes moved" true (moved >= 4096);
            Alcotest.(check bool) "record log non-empty" true
              (Ava_remoting.Migrate.log_length
                 (Option.get (Host.recorder host ~vm_id))
              > 0);
            let back, _ =
              ok
                (CL.clEnqueueReadBuffer q m ~blocking:true ~offset:0 ~size:4096
                   ~wait_list:[] ~want_event:false)
            in
            Alcotest.(check bytes) "data intact" payload back));
    Alcotest.test_case "a destination lost during the drain keeps the VM home"
      `Quick (fun () ->
        (* dev2 is healthy when the move starts and dies 50 us into the
           drain: the handoff must resume the VM on its source rather
           than land it on a dead device. *)
        let e = Engine.create () in
        let host = Host.create_cl_host ~devices:3 e in
        let pool = the_pool host in
        let guest = Host.add_cl_vm ~device:0 host ~name:"mover" in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        Engine.run_process e (fun () ->
            Engine.spawn e (fun () ->
                Engine.delay (Time.us 50);
                Pool.kill_device pool ~device:2);
            Alcotest.(check int) "no bytes moved" 0
              (Pool.migrate_vm pool ~vm_id ~dest:2);
            Alcotest.(check bool) "dev2 is gone" false (Pool.is_healthy pool 2);
            Alcotest.(check (option int)) "still on dev0" (Some 0)
              (Pool.device_of pool ~vm_id);
            Alcotest.(check int) "no migration counted" 0
              (Pool.migrations pool);
            Alcotest.(check bool) "guest still served" true
              (vec_add_ok guest.Host.g_api 64)));
    Alcotest.test_case "a batch stalled in policing loses no call to a migration"
      `Quick (fun () ->
        (* Regression: the router polices every member of a batch before
           it pushes the accepted ones.  Here the token bucket stalls the
           third member of a [setarg x3; NDRange] batch while the first
           two are accepted, and the VM migrates during the stall.  A
           destination cursor inferred from the router's ledgers skipped
           the two accepted members: they reached the destination below
           its cursor with no reply-log entry, were never answered or
           executed, and the launch read unset arguments.  The
           destination now resumes at the source server's cursor. *)
        let e = Engine.create () in
        let host = Host.create_cl_host ~devices:2 e in
        let pool = the_pool host and router = host.Host.router in
        let guest = Host.add_cl_vm host ~device:0 ~batching:true ~name:"batcher" in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        let module CL = (val guest.Host.g_api) in
        let n = 64 in
        let sums =
          Engine.run_process e (fun () ->
              let s = Clutil.open_session guest.Host.g_api in
              let ctx = s.Clutil.context and q = s.Clutil.queue in
              let vector f =
                let m = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
                let by = Bytes.create (4 * n) in
                for i = 0 to n - 1 do
                  Bytes.set_int32_le by (4 * i) (Int32.of_int (f i))
                done;
                ignore
                  (ok
                     (CL.clEnqueueWriteBuffer q m ~blocking:true ~offset:0
                        ~src:by ~wait_list:[] ~want_event:false));
                m
              in
              let a = vector Fun.id and b = vector (fun i -> 7 * i) in
              let out = ok (CL.clCreateBuffer ctx ~size:(4 * n)) in
              let prog =
                ok (CL.clCreateProgramWithSource ctx ~source:"builtin vec_add")
              in
              ok (CL.clBuildProgram prog ~options:"");
              let k = ok (CL.clCreateKernel prog ~name:"vec_add") in
              (* Two tokens, then one per 10 ms: the batch's third member
                 stalls in the bucket, and the VM moves during the
                 stall. *)
              Router.set_rate_limit router ~vm_id ~rate_per_s:100.0 ~burst:2.0;
              let finished = ref false in
              Engine.spawn e (fun () ->
                  let rec watch () =
                    if Router.throttle_ns router ~vm_id > 0 then
                      ignore (Pool.migrate_vm pool ~vm_id ~dest:1)
                    else if not !finished then begin
                      Engine.delay (Time.us 10);
                      watch ()
                    end
                  in
                  watch ());
              ok (CL.clSetKernelArg k ~index:0 (Arg_mem a));
              ok (CL.clSetKernelArg k ~index:1 (Arg_mem b));
              ok (CL.clSetKernelArg k ~index:2 (Arg_mem out));
              ignore
                (ok
                   (CL.clEnqueueNDRangeKernel q k ~global_work_size:n
                      ~local_work_size:64 ~wait_list:[] ~want_event:false));
              let read =
                CL.clEnqueueReadBuffer q out ~blocking:true ~offset:0
                  ~size:(4 * n) ~wait_list:[] ~want_event:false
              in
              finished := true;
              match read with
              | Ok (data, _) ->
                  List.init n (fun i ->
                      Int32.to_int (Bytes.get_int32_le data (4 * i)))
              | Error err ->
                  Alcotest.failf "blocking read failed: %s" (error_to_string err))
        in
        Alcotest.(check int) "moved during the stall" 1 (Pool.migrations pool);
        Alcotest.(check (option int)) "now on dev1" (Some 1)
          (Pool.device_of pool ~vm_id);
        Alcotest.(check (list int)) "sums" (List.init n (fun i -> 8 * i)) sums;
        Alcotest.(check int) "nothing left in flight" 0
          (Router.in_flight_calls router ~vm_id));
    Alcotest.test_case "a call executing at the handoff runs and records at \
                        the destination"
      `Quick (fun () ->
        (* The source is still inside call 0's handler (1 ms) when the
           handoff (200 us drain, instant transfer) seeds the
           destination cursor.  Its cursor has not passed the unanswered
           call, so the destination runs it again and records it: the
           record log has already left the source, which records
           nothing when its handler returns. *)
        let m =
          mini_pool
            ~handler:(fun ~dev v ->
              if dev = 0 && v = 0 then Engine.delay (Time.ms 1);
              (0, Wire.Unit, []))
            ()
        in
        let vm_id = m.mn_vm_id in
        Engine.run_process m.mn_engine (fun () ->
            Engine.spawn m.mn_engine (fun () ->
                Engine.delay (Time.us 50);
                ignore (Pool.migrate_vm m.mn_pool ~vm_id ~dest:1));
            (match Stub.invoke_sync m.mn_stub ~fn:"call" ~args:[ Wire.int 0 ] with
            | Ok r -> Alcotest.(check int) "answered" 0 r.Message.reply_status
            | Error err -> Alcotest.failf "call failed: %s" err);
            Engine.delay (Time.ms 2));
        Alcotest.(check int) "moved" 1 (Pool.migrations m.mn_pool);
        Alcotest.(check int) "ran at the source" 1 (runs m ~dev:0 0);
        Alcotest.(check int) "ran again at the destination" 1 (runs m ~dev:1 0);
        Alcotest.(check int) "recorded at the destination" 1
          (Migrate.log_length
             (Option.get (Server.recorder (Pool.server m.mn_pool 1) ~vm_id)));
        Alcotest.(check int) "nothing left in flight" 0
          (Router.in_flight_calls m.mn_router ~vm_id));
    Alcotest.test_case "a call answered before the handoff is replayed, not \
                        re-run"
      `Quick (fun () ->
        (* Call 0 answers with 1 MiB over a 100 MB/s guest link, so the
           router's egress is busy sending it for ~10 ms.  The source
           answers call 1 meanwhile; its reply waits behind, still owed
           in the router's in-flight ledger when the VM moves.  The
           requeued call 1 reaches the destination below its cursor and
           is answered from the carried reply log, not executed
           again. *)
        let link =
          { Transport.per_msg_ns = 0; bytes_per_s = 1e8; deliver_ns = 0 }
        in
        let m =
          mini_pool ~guest_link:link
            ~handler:(fun ~dev:_ v ->
              (0, (if v = 0 then Wire.Blob (Bytes.create (mib 1)) else Wire.Unit), []))
            ()
        in
        let vm_id = m.mn_vm_id in
        let dst = Pool.server m.mn_pool 1 in
        Engine.run_process m.mn_engine (fun () ->
            let fire v =
              match Stub.invoke m.mn_stub ~fn:"fire" ~args:[ Wire.int v ] with
              | Ok None -> ()
              | _ -> Alcotest.fail "fire should be async"
            in
            fire 0;
            fire 1;
            Engine.delay (Time.us 100);
            Alcotest.(check int) "call 1 answered, reply still owed" 1
              (Router.in_flight_calls m.mn_router ~vm_id);
            ignore (Pool.migrate_vm m.mn_pool ~vm_id ~dest:1);
            (match Stub.invoke_sync m.mn_stub ~fn:"call" ~args:[ Wire.int 2 ] with
            | Ok r -> Alcotest.(check int) "answered" 0 r.Message.reply_status
            | Error err -> Alcotest.failf "call failed: %s" err));
        Alcotest.(check int) "moved" 1 (Pool.migrations m.mn_pool);
        Alcotest.(check int) "call 1 ran at the source" 1 (runs m ~dev:0 1);
        Alcotest.(check int) "call 1 not run at the destination" 0
          (runs m ~dev:1 1);
        Alcotest.(check bool) "replayed from the carried log" true
          (Server.replayed dst >= 1);
        Alcotest.(check int) "nothing left in flight" 0
          (Router.in_flight_calls m.mn_router ~vm_id));
  ]

(* --- device loss and evacuation ------------------------------------------- *)

type evac_outcome = {
  eo_clean_done_at : Time.t;
  eo_victims_ok : int;
  eo_victims_lost : int;  (** device-lost-class errors the victims saw *)
  eo_evacuations : int;
  eo_victim_devices : int option list;
  eo_dev0_healthy : bool;
  eo_report_evac : int;  (** evacuations via the Report pool section *)
}

(* Two devices: two victims pinned to dev0, a clean tenant alone on
   dev1.  Mid-run, dev0 is lost for good; the victims must be evacuated
   onto dev1 and complete there, seeing only device-lost-class errors on
   the way.  The kill instant is seed-perturbed so the CI seed matrix
   exercises different in-flight states. *)
let evac_run ~seed () =
  let e = Engine.create () in
  let host = Host.create_cl_host ~devices:2 ~placement:Pool.Round_robin e in
  let pool = the_pool host in
  let victims =
    List.init 2 (fun i ->
        Host.add_cl_vm host ~device:0 ~name:(Printf.sprintf "victim%d" i))
  in
  let clean = Host.add_cl_vm host ~device:1 ~name:"clean" in
  let v_ok = ref 0 and v_lost = ref 0 and v_done = ref 0 in
  let clean_done_at = ref None in
  List.iter
    (fun v ->
      Engine.spawn e (fun () ->
          let module CL = (val v.Host.g_api) in
          let s = Clutil.open_session v.Host.g_api in
          let k = List.hd (Clutil.build_kernels s [ ("evac", 1e5, 8.0) ]) in
          for _ = 1 to 12 do
            Engine.delay (Time.us 300);
            (match
               CL.clEnqueueNDRangeKernel s.Clutil.queue k ~global_work_size:256
                 ~local_work_size:16 ~wait_list:[] ~want_event:false
             with
            | Ok _ -> ()
            | Error Device_not_available -> incr v_lost
            | Error err ->
                Alcotest.failf "victim enqueue: %s" (error_to_string err));
            match CL.clFinish s.Clutil.queue with
            | Ok () -> incr v_ok
            | Error Device_not_available -> incr v_lost
            | Error err ->
                Alcotest.failf "victim finish: %s" (error_to_string err)
          done;
          incr v_done))
    victims;
  Engine.spawn e (fun () ->
      (bench "bfs").Rodinia.run clean.Host.g_api;
      clean_done_at := Some (Engine.now e));
  Engine.spawn e (fun () ->
      Engine.delay (Time.us (800 + (100 * (seed mod 7))));
      Pool.kill_device pool ~device:0);
  Engine.run e;
  Alcotest.(check int) "both victims ran to completion" 2 !v_done;
  let report = Report.snapshot host (clean :: victims) in
  {
    eo_clean_done_at =
      (match !clean_done_at with
      | Some t -> t
      | None -> Alcotest.fail "clean VM hung");
    eo_victims_ok = !v_ok;
    eo_victims_lost = !v_lost;
    eo_evacuations = Pool.evacuations pool;
    eo_victim_devices =
      List.map
        (fun v -> Pool.device_of pool ~vm_id:(Ava_hv.Vm.id v.Host.g_vm))
        victims;
    eo_dev0_healthy = Pool.is_healthy pool 0;
    eo_report_evac = report.Report.r_pool.Report.pl_evacuations;
  }

let evac_tests =
  [
    Alcotest.test_case "device loss evacuates residents onto the survivor"
      `Slow (fun () ->
        let solo = timed_bfs_run (fun e -> Host.create_cl_host e) in
        let o = evac_run ~seed:chaos_seed () in
        Alcotest.(check bool) "device 0 is gone" false o.eo_dev0_healthy;
        Alcotest.(check int) "both residents evacuated" 2 o.eo_evacuations;
        Alcotest.(check (list (option int))) "victims live on dev1"
          [ Some 1; Some 1 ] o.eo_victim_devices;
        Alcotest.(check bool) "victims made progress" true
          (o.eo_victims_ok > 0);
        Alcotest.(check int) "report agrees on evacuations" 2
          o.eo_report_evac;
        (* The clean tenant had dev1 to itself before the kill and only
           shares with the tiny evacuated loops after: within 5% of a
           solo fault-free run. *)
        let ratio =
          float_of_int o.eo_clean_done_at /. float_of_int solo
        in
        if ratio > 1.05 then
          Alcotest.failf "clean VM degraded by %.1f%% (solo=%d shared=%d)"
            ((ratio -. 1.0) *. 100.0)
            solo o.eo_clean_done_at;
        (* Same seed, same run: completion times, error counts and
           placement are all bit-identical. *)
        let o2 = evac_run ~seed:chaos_seed () in
        Alcotest.(check bool) "same-seed runs identical" true (o = o2));
    Alcotest.test_case "a victim already migrating is not evacuated" `Quick
      (fun () ->
        (* x trips its breaker on a failed launch, then starts a move
           to dev2; dev0 dies during the drain.  The in-flight
           migration carries x, so the evacuation moved nothing: it
           counts no evacuation and leaves x's breaker open. *)
        let e = Engine.create () in
        let devfaults =
          Devfault.create
            ~gpu:
              { Devfault.gpu_none with gpu_launch_fail = 1.0;
                gpu_target = Some 1 }
            ~seed:1 ()
        in
        let host = Host.create_cl_host ~devices:3 ~devfaults e in
        let pool = the_pool host in
        let x =
          Host.add_cl_vm ~device:0 host ~name:"x"
            ~breaker:
              { Policy.Breaker.failure_threshold = 1; cooldown_ns = Time.s 1 }
        in
        let vm_id = Ava_hv.Vm.id x.Host.g_vm in
        Alcotest.(check int) "x is the fault target" 1 vm_id;
        let breaker_state () =
          Option.map
            (fun i -> i.Router.bi_state)
            (Router.breaker_info host.Host.router ~vm_id)
        in
        let module CL = (val x.Host.g_api) in
        Engine.run_process e (fun () ->
            let s = Clutil.open_session x.Host.g_api in
            let k = List.hd (Clutil.build_kernels s [ ("evac", 1e5, 8.0) ]) in
            ignore
              (ok
                 (CL.clEnqueueNDRangeKernel s.Clutil.queue k
                    ~global_work_size:256 ~local_work_size:16 ~wait_list:[]
                    ~want_event:false));
            Alcotest.(check bool) "launch failed" true
              (CL.clFinish s.Clutil.queue = Error Device_not_available);
            Alcotest.(check bool) "breaker open" true
              (breaker_state () = Some Policy.Breaker.Open);
            Engine.spawn e (fun () ->
                Engine.delay (Time.us 50);
                Pool.kill_device pool ~device:0);
            ignore (Pool.migrate_vm pool ~vm_id ~dest:2));
        Alcotest.(check (option int)) "x on dev2" (Some 2)
          (Pool.device_of pool ~vm_id);
        Alcotest.(check int) "one migration" 1 (Pool.migrations pool);
        Alcotest.(check int) "no evacuation" 0 (Pool.evacuations pool);
        Alcotest.(check (list (pair int int))) "no evacuation tallies"
          [ (0, 0); (0, 0); (0, 0) ]
          (List.map
             (fun d -> (d.Pool.ds_evac_in, d.Pool.ds_evac_out))
             (Pool.stats pool));
        Alcotest.(check bool) "breaker still open" true
          (breaker_state () = Some Policy.Breaker.Open));
  ]

(* --- rebalancing ----------------------------------------------------------- *)

(* Three identical tenants all pinned to dev0 of a two-device pool; a
   second device sits idle.  Returns (last completion time, rebalance
   migrations).  With the skew monitor armed, at least one tenant must
   move to dev1 and the makespan must beat the static run. *)
let skew_run ?rebalance () =
  let e = Engine.create () in
  let host = Host.create_cl_host ~devices:2 ?rebalance e in
  let pool = the_pool host in
  let guests =
    List.init 3 (fun i ->
        Host.add_cl_vm host ~device:0 ~name:(Printf.sprintf "heavy%d" i))
  in
  let done_at = Array.make 3 0 in
  List.iteri
    (fun i g ->
      Engine.spawn e (fun () ->
          (bench "bfs").Rodinia.run g.Host.g_api;
          done_at.(i) <- Engine.now e))
    guests;
  if rebalance <> None then
    Engine.spawn e (fun () ->
        let rec wait () =
          if Array.exists (fun t -> t = 0) done_at then begin
            Engine.delay (Time.us 100);
            wait ()
          end
          else Pool.stop pool
        in
        wait ());
  Engine.run e;
  (Array.fold_left Stdlib.max 0 done_at, Pool.rebalances pool)

let rebalance_tests =
  [
    Alcotest.test_case "skew monitor migrates load off the hot device" `Slow
      (fun () ->
        let t_static, r_static = skew_run () in
        Alcotest.(check int) "static run never migrates" 0 r_static;
        let t_rebal, r_rebal =
          skew_run
            ~rebalance:{ Pool.rb_interval = Time.us 500; rb_skew = 1.5 }
            ()
        in
        Alcotest.(check bool) "at least one rebalance migration" true
          (r_rebal >= 1);
        if t_rebal >= t_static then
          Alcotest.failf
            "rebalancing did not beat static placement (static=%d rebal=%d)"
            t_static t_rebal);
    Alcotest.test_case "rebalance_now is a no-op on balanced load" `Quick
      (fun () ->
        let e = Engine.create () in
        let host =
          Host.create_cl_host ~devices:2 ~placement:Pool.Round_robin e
        in
        let pool = the_pool host in
        let guests =
          List.init 2 (fun i ->
              Host.add_cl_vm host ~name:(Printf.sprintf "vm%d" i))
        in
        Engine.run_process e (fun () ->
            List.iter
              (fun g -> ignore (vec_add_ok g.Host.g_api 512))
              guests;
            Alcotest.(check bool) "no migration" false
              (Pool.rebalance_now pool));
        Alcotest.(check int) "counter untouched" 0 (Pool.rebalances pool));
    Alcotest.test_case "skew_pick: first hottest, first coldest, best fit"
      `Quick (fun () ->
        let seen = ref [] in
        let candidates ~hot ~cold =
          seen := [ hot; cold ];
          [ ("idle", 0); ("a", 3); ("b", 7); ("c", 3) ]
        in
        (* Loads 10,10,0,0: avg 5, hot 10 > 1.5 * 5.  Hot is the first
           10, cold the first 0; the target is 5, so "a", "b" and "c"
           all miss by 2 and the earliest wins. *)
        let bins = [ (0, 10); (1, 10); (2, 0); (3, 0) ] in
        match Pool.skew_pick ~skew:1.5 bins ~candidates with
        | None -> Alcotest.fail "expected a move"
        | Some m ->
            Alcotest.(check (list int)) "candidates asked for hot, cold"
              [ 0; 2 ] !seen;
            Alcotest.(check (list int)) "hot, load, avg, cold" [ 0; 10; 5; 2 ]
              [ m.Pool.sm_hot; m.Pool.sm_hot_load; m.Pool.sm_avg;
                m.Pool.sm_cold ];
            Alcotest.(check string) "earlier candidate on equal fit" "a"
              m.Pool.sm_victim);
    Alcotest.test_case "skew_pick ignores zero weights and stays put"
      `Quick (fun () ->
        let pick ?(cands = [ ("z", 0); ("a", 12) ]) bins =
          Option.map
            (fun m -> m.Pool.sm_victim)
            (Pool.skew_pick ~skew:1.5 bins ~candidates:(fun ~hot:_ ~cold:_ ->
                 cands))
        in
        (* Target 5: the idle "z" would fit best (off by 5 vs 7) but
           moving it frees nothing. *)
        Alcotest.(check (option string)) "zero weight ignored" (Some "a")
          (pick [ (0, 10); (1, 0) ]);
        Alcotest.(check (option string)) "only idle candidates" None
          (pick ~cands:[ ("z", 0) ] [ (0, 10); (1, 0) ]);
        Alcotest.(check (option string)) "within the skew" None
          (pick [ (0, 7); (1, 5) ]);
        Alcotest.(check (option string)) "single bin" None (pick [ (0, 10) ]);
        Alcotest.(check (option string)) "no bins" None (pick []);
        Alcotest.(check (option string)) "zero total load" None
          (pick [ (0, 0); (1, 0) ]));
    Alcotest.test_case "a VM already migrating is not counted as a rebalance"
      `Quick (fun () ->
        (* x and y share dev0 and only x has done work, so x is the only
           useful victim.  While x's own migration drains, the skew
           step must skip it rather than count a move that the
           handoff refuses. *)
        let e = Engine.create () in
        let host = Host.create_cl_host ~devices:2 e in
        let pool = the_pool host in
        let x = Host.add_cl_vm ~device:0 host ~name:"x" in
        let _y = Host.add_cl_vm ~device:0 host ~name:"y" in
        let x_id = Ava_hv.Vm.id x.Host.g_vm in
        Engine.run_process e (fun () ->
            Alcotest.(check bool) "x computed" true (vec_add_ok x.Host.g_api 512);
            Engine.spawn e (fun () ->
                ignore (Pool.migrate_vm pool ~vm_id:x_id ~dest:1));
            Engine.delay (Time.us 50);
            Alcotest.(check bool) "no rebalance reported" false
              (Pool.rebalance_now pool));
        Alcotest.(check int) "no rebalance counted" 0 (Pool.rebalances pool);
        Alcotest.(check int) "only the explicit migration ran" 1
          (Pool.migrations pool);
        Alcotest.(check (option int)) "x moved" (Some 1)
          (Pool.device_of pool ~vm_id:x_id));
  ]

(* --- the administrator's view --------------------------------------------- *)

let report_tests =
  [
    Alcotest.test_case "report carries the per-device section" `Quick
      (fun () ->
        let e = Engine.create () in
        let host =
          Host.create_cl_host ~devices:2 ~placement:Pool.Round_robin e
        in
        let guests =
          List.init 2 (fun i ->
              Host.add_cl_vm host ~name:(Printf.sprintf "vm%d" i))
        in
        Engine.run_process e (fun () ->
            List.iter
              (fun g -> ignore (vec_add_ok g.Host.g_api 512))
              guests);
        let r = Report.snapshot host guests in
        Alcotest.(check int) "two device rows" 2
          (List.length r.Report.r_devices);
        Alcotest.(check int) "device count" 2 r.Report.r_pool.Report.pl_devices;
        Alcotest.(check string) "placement" "round-robin"
          r.Report.r_pool.Report.pl_placement;
        List.iteri
          (fun i d ->
            Alcotest.(check int) (Printf.sprintf "dev%d id" i) i
              d.Report.dv_id;
            Alcotest.(check (list int))
              (Printf.sprintf "dev%d residents" i)
              [ i + 1 ] d.Report.dv_resident;
            Alcotest.(check bool)
              (Printf.sprintf "dev%d executed calls" i)
              true (d.Report.dv_executed > 0))
          r.Report.r_devices;
        (* Scalar counters aggregate over the pool. *)
        Alcotest.(check int) "executed sums the per-device rows"
          (List.fold_left
             (fun acc d -> acc + d.Report.dv_executed)
             0 r.Report.r_devices)
          r.Report.r_executed;
        let rendered = Fmt.str "%a" Report.pp r in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "pool line rendered" true
          (contains rendered "pool:"));
    Alcotest.test_case "default host reports a one-device pool" `Quick
      (fun () ->
        let e = Engine.create () in
        let host = Host.create_cl_host e in
        let guest = Host.add_cl_vm host ~name:"solo" in
        Engine.run_process e (fun () ->
            ignore (vec_add_ok guest.Host.g_api 256));
        let r = Report.snapshot host [ guest ] in
        Alcotest.(check int) "one pool device" 1
          r.Report.r_pool.Report.pl_devices;
        Alcotest.(check (list int)) "a single dev0 row" [ 0 ]
          (List.map (fun d -> d.Report.dv_id) r.Report.r_devices));
  ]

let () =
  Alcotest.run "ava_pool"
    [
      ("wfq", wfq_tests);
      ("router", router_tests);
      ("placement", placement_tests);
      ("identity", identity_tests);
      ("migration", migration_tests);
      ("evacuation", evac_tests);
      ("rebalance", rebalance_tests);
      ("report", report_tests);
    ]
