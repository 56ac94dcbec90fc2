(* Multi-tenant sharing: four guest VMs on one GPU, with the router
   enforcing WFQ weights and a rate limit — the consolidation story the
   paper opens with.

     dune exec examples/multi_tenant.exe *)

open Ava_sim
open Ava_core
open Ava_workloads

let () =
  let engine = Engine.create () in
  let host = Host.create_cl_host engine in
  (* Gold gets 8x the share of bronze; the noisy neighbor is also
     rate-limited to 5000 API calls/s. *)
  let tenants =
    [
      ("gold", Host.add_cl_vm host ~weight:8.0 ~name:"gold");
      ("silver", Host.add_cl_vm host ~weight:4.0 ~name:"silver");
      ("bronze", Host.add_cl_vm host ~weight:1.0 ~name:"bronze");
      ( "noisy",
        Host.add_cl_vm host ~weight:1.0 ~rate_per_s:5000.0 ~name:"noisy" );
    ]
  in
  let finish_times = Hashtbl.create 4 in
  List.iter
    (fun (name, guest) ->
      Engine.spawn engine (fun () ->
          let module CL = (val guest.Host.g_api) in
          let s = Clutil.open_session (module CL) in
          let kernels =
            Clutil.build_kernels s [ ("work", 2.0e9 /. 65536.0, 0.0) ]
          in
          let k = List.hd kernels in
          for _ = 1 to 40 do
            Clutil.launch s k ~global:65536 ~local:256
          done;
          Clutil.finish s;
          Hashtbl.replace finish_times name (Engine.now engine)))
    tenants;
  Engine.run engine;
  Fmt.pr "four tenants, equal demand (40 x ~225us kernels each):@.";
  List.iter
    (fun (name, guest) ->
      let vm = guest.Host.g_vm in
      Fmt.pr
        "  %-7s weight-ordered finish at %-10s (%d calls, %d bytes moved)@."
        name
        (Time.to_string (Hashtbl.find finish_times name))
        (Ava_hv.Vm.api_calls vm)
        (Ava_hv.Vm.bytes_transferred vm))
    tenants;
  Fmt.pr "@.%a" (Ava_core.Report.pp host) (List.map snd tenants)
