(* The SimST silo end to end: a heterogeneous pool fronting the
   stream-accelerator API whose remoting stack is generated from
   specs/simst.cava.

   Three tenants land on a mixed fleet by capability: two stream VMs
   run a produce/consume pipeline across two streams ordered by an
   event, and an NPU VM pushes a queued inference batch through the
   ticket interface.  An operator then live-migrates a stream VM to the
   other stream device — device memory rides along and a readback on
   the destination proves it — and finally tries to push it onto the
   NPU device, which the pool refuses: migration is same-capability
   only. *)

module Pool = Ava_pool.Pool

open Ava_sim
open Ava_core
open Ava_simst.Types

let ok = function Ok v -> v | Error st -> failwith (status_to_string st)

let i32_bytes l =
  let by = Bytes.create (4 * List.length l) in
  List.iteri (fun i v -> Bytes.set_int32_le by (4 * i) (Int32.of_int v)) l;
  by

let i32_list by =
  List.init
    (Bytes.length by / 4)
    (fun i -> Int32.to_int (Bytes.get_int32_le by (4 * i)))

(* Upload on one stream, record an event, scale on another stream that
   waits for it — the ordering vocabulary the sync_on annotations
   describe. *)
let stream_program (module ST : Ava_simst.Api.S) =
  let producer = ok (ST.stStreamCreate ()) in
  let consumer = ok (ST.stStreamCreate ()) in
  let a = ok (ST.stMemAlloc ~size:16) in
  let out = ok (ST.stMemAlloc ~size:16) in
  let ev = ok (ST.stEventCreate ()) in
  ok (ST.stMemcpyHtoDAsync a ~src:(i32_bytes [ 5; 6; 7; 8 ]) producer);
  ok (ST.stEventRecord ev producer);
  ok (ST.stStreamWaitEvent consumer ev);
  ok (ST.stLaunchKernel consumer ~name:"scale" ~a ~b:a ~out ~n:4);
  let res = i32_list (ok (ST.stMemcpyDtoH ~size:16 out)) in
  ok (ST.stStreamSynchronize consumer);
  List.iter (fun m -> ok (ST.stMemFree m)) [ a; out ];
  ok (ST.stEventDestroy ev);
  List.iter (fun s -> ok (ST.stStreamDestroy s)) [ producer; consumer ];
  res

(* NPU-style queued inference: submit a batch, get a ticket, collect
   the per-item scores. *)
let infer_program (module ST : Ava_simst.Api.S) =
  let s = ok (ST.stStreamCreate ()) in
  let items = [ 3; 1; 4; 1; 5; 9 ] in
  let ticket = ok (ST.stBatchSubmit s ~batch:(i32_bytes items) ~item_size:4) in
  let scores =
    i32_list
      (ok (ST.stBatchCollect s ~ticket ~size:(4 * List.length items)))
  in
  ok (ST.stStreamDestroy s);
  scores

let () =
  let e = Engine.create () in
  let host =
    Host.create_st_host
      ~fleet:[ Pool.Cap_stream; Pool.Cap_stream; Pool.Cap_npu ]
      ~placement:Pool.Round_robin e
  in
  let pool = host.Host.st_pool in
  let add name requires = Host.add_st_vm host ~requires ~name in
  let vec = add "vec" Pool.Cap_stream in
  let vec2 = add "vec2" Pool.Cap_stream in
  let infer = add "infer" Pool.Cap_npu in

  List.iter
    (fun g ->
      let vm_id = Ava_hv.Vm.id g.Host.sg_vm in
      let dev = Option.get (Pool.device_of pool ~vm_id) in
      Fmt.pr "%-5s placed on device %d (%s)@."
        (Ava_hv.Vm.name g.Host.sg_vm)
        dev
        (Pool.capability_to_string (Pool.capability pool dev)))
    [ vec; vec2; infer ];

  Engine.spawn e (fun () ->
      List.iter
        (fun g ->
          Fmt.pr "%-5s scaled = %a@."
            (Ava_hv.Vm.name g.Host.sg_vm)
            Fmt.(Dump.list int)
            (stream_program g.Host.sg_api))
        [ vec; vec2 ];
      Fmt.pr "%-5s scores = %a@."
        (Ava_hv.Vm.name infer.Host.sg_vm)
        Fmt.(Dump.list int)
        (infer_program infer.Host.sg_api);

      (* Leave state on vec's device, then move the VM between the two
         stream devices: record/replay rebuilds handles on the
         destination and the buffer contents ride along. *)
      let vm_id = Ava_hv.Vm.id vec.Host.sg_vm in
      let module ST = (val vec.Host.sg_api) in
      let s = ok (ST.stStreamCreate ()) in
      let m = ok (ST.stMemAlloc ~size:16) in
      ok (ST.stMemcpyHtoDAsync m ~src:(i32_bytes [ 40; 41; 42; 43 ]) s);
      ok (ST.stStreamSynchronize s);
      let src = Option.get (Pool.device_of pool ~vm_id) in
      let dest = 1 - src in
      let moved = Pool.migrate_vm pool ~vm_id ~dest in
      Fmt.pr "migrate vec: device %d -> %d moved %d bytes, readback %a@." src
        dest moved
        Fmt.(Dump.list int)
        (i32_list (ok (ST.stMemcpyDtoH ~size:16 m)));

      (* A stream VM cannot land on the NPU device. *)
      let refused = Pool.migrate_vm pool ~vm_id ~dest:2 in
      Fmt.pr "migrate vec -> npu device 2: moved %d (refused), still on %d@."
        refused
        (Option.get (Pool.device_of pool ~vm_id));
      ok (ST.stMemFree m);
      ok (ST.stStreamDestroy s));
  Engine.run e;
  Fmt.pr "pool migrations performed: %d@." (Pool.migrations pool)
