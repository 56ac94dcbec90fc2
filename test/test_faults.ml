(* Chaos suite for the fault-injection and recovery layer.

   The contract under test (ISSUE tentpole): with seeded faults on the
   guest transport and the stub's retransmission watchdog armed, every
   Rodinia workload still runs to completion — no hangs, no surfaced
   errors — on both the shm-ring and network transports; with faults
   disabled the stack is bit-identical in timing to the fault-free
   build; and a crashed API server recovers through retransmission,
   idempotent replay and router requeue. *)

module Transport = Ava_transport.Transport
module Faults = Ava_transport.Faults
module Stub = Ava_remoting.Stub
module Message = Ava_remoting.Message
module Server = Ava_remoting.Server
module Router = Ava_remoting.Router

open Ava_sim
open Ava_core
open Ava_workloads

let virt = Ava_device.Timing.default_virt

(* Run the engine with a receiver parked on [ep] and count what it
   takes off: a lost or rejected frame never reaches it. *)
let received e ep =
  let n = ref 0 in
  Engine.spawn e (fun () ->
      while true do
        ignore (Transport.recv ep);
        incr n
      done);
  Engine.run e;
  !n

(* --- checksum envelope ---------------------------------------------------- *)

let seal_tests =
  [
    Alcotest.test_case "seal/unseal roundtrip" `Quick (fun () ->
        let payload = Bytes.of_string "the quick brown fox" in
        match Faults.unseal (Faults.seal [| payload |]) with
        | Some back ->
            Alcotest.(check string) "payload survives"
              (Bytes.to_string payload) (Bytes.to_string back)
        | None -> Alcotest.fail "sealed frame rejected");
    Alcotest.test_case "any single bit flip is detected" `Quick (fun () ->
        let sealed = Faults.seal [| Bytes.of_string "payload under test" |] in
        for i = 0 to Bytes.length sealed - 1 do
          for bit = 0 to 7 do
            let mangled = Bytes.copy sealed in
            Bytes.set mangled i
              (Char.chr (Char.code (Bytes.get mangled i) lxor (1 lsl bit)));
            match Faults.unseal mangled with
            | Some _ -> Alcotest.failf "flip at byte %d bit %d accepted" i bit
            | None -> ()
          done
        done);
    Alcotest.test_case "truncated frame rejected" `Quick (fun () ->
        (match Faults.unseal (Bytes.create 4) with
        | Some _ -> Alcotest.fail "short frame accepted"
        | None -> ());
        match Faults.unseal (Bytes.create 0) with
        | Some _ -> Alcotest.fail "empty frame accepted"
        | None -> ());
  ]

(* --- single fault kinds on a raw link ------------------------------------- *)

let injection_tests =
  [
    Alcotest.test_case "drop_p=1 loses everything" `Quick (fun () ->
        let e = Engine.create () in
        let a, b = Transport.shm_ring e ~virt in
        let f = Faults.create ~seed:7L { Faults.none with drop_p = 1.0 } in
        Faults.wrap f (a, b);
        Engine.spawn e (fun () ->
            for _ = 1 to 10 do
              Transport.send a [| Bytes.of_string "x" |]
            done);
        Engine.run e;
        Alcotest.(check int) "all dropped" 10 (Faults.stats f).Faults.dropped;
        Alcotest.(check int) "nothing arrives" 0 (received e b));
    Alcotest.test_case "corrupt_p=1: every frame caught on receive" `Quick
      (fun () ->
        let e = Engine.create () in
        let a, b = Transport.shm_ring e ~virt in
        let f = Faults.create ~seed:9L { Faults.none with corrupt_p = 1.0 } in
        Faults.wrap f (a, b);
        Engine.spawn e (fun () ->
            for _ = 1 to 10 do
              Transport.send a [| Bytes.of_string "precious payload" |]
            done);
        Engine.run e;
        Alcotest.(check int) "corruption surfaces as loss" 0 (received e b);
        let s = Faults.stats f in
        Alcotest.(check int) "all corrupted" 10 s.Faults.corrupted;
        Alcotest.(check int) "all rejected by checksum" 10
          s.Faults.checksum_rejects);
    Alcotest.test_case "duplicate_p=1 delivers twice" `Quick (fun () ->
        let e = Engine.create () in
        let a, b = Transport.shm_ring e ~virt in
        let f =
          Faults.create ~seed:11L { Faults.none with duplicate_p = 1.0 }
        in
        Faults.wrap f (a, b);
        Engine.spawn e (fun () -> Transport.send a [| Bytes.of_string "once" |]);
        let got =
          Engine.run_process e (fun () ->
              let x = Transport.recv b in
              let y = Transport.recv b in
              (Bytes.to_string x.(0), Bytes.to_string y.(0)))
        in
        Alcotest.(check (pair string string)) "same frame twice"
          ("once", "once") got;
        Alcotest.(check int) "counted" 1 (Faults.stats f).Faults.duplicated);
    Alcotest.test_case "delays never reorder the link" `Quick (fun () ->
        let e = Engine.create () in
        let a, b = Transport.shm_ring e ~virt in
        let f =
          Faults.create ~seed:13L
            {
              Faults.none with
              delay_p = 1.0;
              max_delay_ns = Time.ms 1;
            }
        in
        Faults.wrap f (a, b);
        let n = 20 in
        Engine.spawn e (fun () ->
            for i = 1 to n do
              Transport.send a [| Bytes.of_string (string_of_int i) |]
            done);
        let got =
          Engine.run_process e (fun () ->
              List.init n (fun _ -> int_of_string (Bytes.to_string (Transport.recv b).(0))))
        in
        Alcotest.(check (list int)) "FIFO preserved" (List.init n (fun i -> i + 1)) got;
        Alcotest.(check int) "all delayed" n (Faults.stats f).Faults.delayed);
  ]

(* --- full-stack chaos runs ------------------------------------------------ *)

(* Run one SimCL program on a fresh AvA stack, optionally with faults on
   the guest transport and the retry watchdog armed.  Completion is part
   of the assertion: a hang drains the event queue and
   [Engine.run_process] raises [Stalled]. *)
(* CI sweeps the chaos-case fault seeds via [AVA_CHAOS_SEED]; the
   fixed-seed determinism tests below are seed-independent. *)
let chaos_seed_base = Ava_campaign.Chaos_env.seed64 ~default:0L

let run_chaos ?faults ?retry ~kind program =
  let e = Engine.create () in
  let host = Host.create_cl_host e in
  let guest =
    Host.add_cl_vm host ~technique:(Host.Ava kind) ?faults ?retry ~name:"guest"
  in
  let finished_at =
    Engine.run_process e (fun () ->
        program guest.Host.g_api;
        Engine.now e)
  in
  (finished_at, host, guest)

let stub_of guest = Option.get guest.Host.g_stub

let chaos_case (b : Rodinia.benchmark) kind seed =
  let name =
    Printf.sprintf "%s survives %s faults" b.Rodinia.name
      (Transport.kind_to_string kind)
  in
  Alcotest.test_case name `Slow (fun () ->
      let faults = Faults.create ~seed Faults.light in
      (* Every lost frame but an acknowledgement needs a resend: the
         next frame's mark covers what a lost acknowledgement said. *)
      let cu = Message.cursor () and must_resend = ref 0 in
      Faults.set_loss_hook faults (fun msg ->
          match Message.read cu msg with
          | Ok Message.K_ack -> ()
          | Ok _ | Error _ -> incr must_resend);
      let _, _host, guest =
        run_chaos ~faults ~retry:Stub.default_retry ~kind b.Rodinia.run
      in
      let s = Faults.stats faults in
      let stub = stub_of guest in
      Alcotest.(check bool) "traffic crossed the fault layer" true
        (s.Faults.sealed_msgs > 0);
      Alcotest.(check int) "no call gave up" 0 (Stub.timeouts stub);
      if !must_resend > 0 then
        Alcotest.(check bool) "losses were retransmitted" true
          (Stub.retries stub > 0))

let chaos_tests =
  List.concat_map
    (fun kind ->
      List.mapi
        (fun i b ->
          chaos_case b kind
            (Int64.add chaos_seed_base (Int64.of_int ((i * 37) + 101))))
        Rodinia.all)
    [ Transport.Shm_ring; Transport.Network ]

(* --- determinism ---------------------------------------------------------- *)

let determinism_tests =
  [
    Alcotest.test_case "same seed, same faulty run" `Quick (fun () ->
        let b = Option.get (Rodinia.find "bfs") in
        let run () =
          let faults = Faults.create ~seed:424242L Faults.light in
          let t, _, _ =
            run_chaos ~faults ~retry:Stub.default_retry
              ~kind:Transport.Shm_ring b.Rodinia.run
          in
          (t, (Faults.stats faults).Faults.dropped)
        in
        let t1, d1 = run () in
        let t2, d2 = run () in
        Alcotest.(check int) "bit-identical completion" t1 t2;
        Alcotest.(check int) "identical fault schedule" d1 d2);
    Alcotest.test_case "same seed, same corrupt schedule (in-place flip)"
      `Quick (fun () ->
        (* Regression for the corrupt path rewrite: the byte flip now
           mutates the sealed frame in place instead of cloning it
           first.  The frame is freshly sealed (never aliased by the
           stub's resend buffers), and the RNG draw order is unchanged,
           so two same-seed runs must stay bit-identical — and every
           corrupted frame must still be caught and healed. *)
        let b = Option.get (Rodinia.find "nn") in
        let run () =
          let faults =
            Faults.create ~seed:31337L
              { Faults.none with corrupt_p = 0.05 }
          in
          let t, _, guest =
            run_chaos ~faults ~retry:Stub.default_retry
              ~kind:Transport.Shm_ring b.Rodinia.run
          in
          let s = Faults.stats faults in
          ( t,
            s.Faults.corrupted,
            s.Faults.checksum_rejects,
            Stub.timeouts (stub_of guest) )
        in
        let t1, c1, r1, to1 = run () in
        let t2, c2, r2, to2 = run () in
        Alcotest.(check int) "bit-identical completion" t1 t2;
        Alcotest.(check int) "identical corrupt schedule" c1 c2;
        Alcotest.(check int) "identical rejects" r1 r2;
        Alcotest.(check bool) "corruption actually exercised" true (c1 > 0);
        Alcotest.(check int) "every corrupt frame caught" c1 r1;
        Alcotest.(check int) "no call gave up" 0 to1;
        Alcotest.(check int) "no call gave up (rerun)" 0 to2);
    Alcotest.test_case "faults disabled: bit-identical to the plain stack"
      `Quick (fun () ->
        (* The recovery machinery must be invisible when unused: arming
           the retry watchdog without faults may not move a single
           timestamp relative to the historical stack. *)
        let b = Option.get (Rodinia.find "srad") in
        let plain, _, _ = run_chaos ~kind:Transport.Shm_ring b.Rodinia.run in
        let armed, _, guest =
          run_chaos ~retry:Stub.default_retry ~kind:Transport.Shm_ring
            b.Rodinia.run
        in
        Alcotest.(check int) "identical virtual time" plain armed;
        Alcotest.(check int) "no spurious resends" 0
          (Stub.retries (stub_of guest)));
  ]

(* --- doorbell coalescing --------------------------------------------------- *)

let db_cfg ?(horizon = Time.ns 800) ?(batch = 8) ?(slot = Time.ns 100)
    ?(poll = Time.ns 25_000) () =
  {
    Transport.db_horizon_ns = horizon;
    db_batch = batch;
    db_slot_ns = slot;
    db_poll_ns = poll;
  }

let doorbell_tests =
  [
    (* Satellite pin: a batched slot whose flush horizon falls exactly on
       a [run ~until] boundary must be flushed before the clock clamps —
       the horizon timer is an event at the horizon, and events at the
       horizon run.  Exercised on both short (calendar-wheel) and long
       (heap) timer horizons. *)
    Alcotest.test_case "horizon flush fires before run ~until clamps" `Quick
      (fun () ->
        List.iter
          (fun horizon ->
            let e = Engine.create () in
            let a, _b = Transport.direct e in
            Transport.set_doorbell ~cfg:(db_cfg ~horizon ()) a;
            Engine.spawn e (fun () -> Transport.send a [| Bytes.of_string "m" |]);
            Engine.run e ~until:(horizon - 1);
            Alcotest.(check int) "still pending inside the horizon" 1
              (Transport.db_pending a);
            Alcotest.(check int) "no notify yet" 0 (Transport.db_notifies a);
            Engine.run e ~until:horizon;
            Alcotest.(check int)
              (Printf.sprintf "flushed at the %dns horizon" horizon)
              0 (Transport.db_pending a);
            Alcotest.(check int) "one notify" 1 (Transport.db_notifies a);
            Alcotest.(check int) "clock clamped to the horizon" horizon
              (Engine.now e))
          [ Time.ns 800; Time.us 5 ]);
    Alcotest.test_case "kick flushes the whole batch at once" `Quick (fun () ->
        let e = Engine.create () in
        let a, b = Transport.shm_ring e ~virt in
        Transport.set_doorbell ~cfg:(db_cfg ()) a;
        Engine.spawn e (fun () ->
            Transport.send a [| Bytes.of_string "q1" |];
            Transport.send a [| Bytes.of_string "q2" |];
            Transport.send ~kick:true a [| Bytes.of_string "sync" |]);
        Engine.run e;
        Alcotest.(check int) "single notify covers the batch" 1
          (Transport.db_notifies a);
        Alcotest.(check int) "nothing left pending" 0 (Transport.db_pending a);
        Alcotest.(check int) "all three delivered" 3 (received e b));
    Alcotest.test_case "batch cap forces a flush" `Quick (fun () ->
        let e = Engine.create () in
        let a, _b = Transport.shm_ring e ~virt in
        Transport.set_doorbell ~cfg:(db_cfg ~batch:3 ~poll:0 ()) a;
        Engine.spawn e (fun () ->
            for i = 1 to 3 do
              Transport.send a [| Bytes.of_string (string_of_int i) |]
            done);
        Engine.run e;
        Alcotest.(check int) "one forced flush" 1
          (Transport.db_forced_flushes a);
        Alcotest.(check int) "one notify" 1 (Transport.db_notifies a));
    Alcotest.test_case "sends in the poll window ride along, no notify"
      `Quick (fun () ->
        let e = Engine.create () in
        let a, _b = Transport.shm_ring e ~virt in
        Transport.set_doorbell ~cfg:(db_cfg ()) a;
        Engine.spawn e (fun () ->
            (* First send pays the notify; the drain plus the 25 us poll
               grace then covers the rest of the burst. *)
            Transport.send ~kick:true a [| Bytes.of_string "head" |];
            for _ = 1 to 5 do
              Engine.delay (Time.us 2);
              Transport.send a [| Bytes.of_string "tail" |]
            done);
        Engine.run e;
        Alcotest.(check int) "one notify for the burst" 1
          (Transport.db_notifies a);
        Alcotest.(check int) "five suppressed" 5 (Transport.db_suppressed a));
    Alcotest.test_case "poll window expiry re-arms the interrupt" `Quick
      (fun () ->
        let e = Engine.create () in
        let a, _b = Transport.shm_ring e ~virt in
        Transport.set_doorbell ~cfg:(db_cfg ~poll:(Time.us 25) ()) a;
        Engine.spawn e (fun () ->
            Transport.send ~kick:true a [| Bytes.of_string "head" |];
            (* Far past drain + poll grace: the peer went back to sleep
               and the next send must ring the doorbell again. *)
            Engine.delay (Time.us 200);
            Transport.send ~kick:true a [| Bytes.of_string "late" |]);
        Engine.run e;
        Alcotest.(check int) "two notifies" 2 (Transport.db_notifies a);
        Alcotest.(check int) "nothing suppressed" 0
          (Transport.db_suppressed a));
    Alcotest.test_case "peer reply traffic refreshes the poll window" `Quick
      (fun () ->
        let e = Engine.create () in
        let a, b = Transport.shm_ring e ~virt in
        Transport.set_doorbell ~cfg:(db_cfg ~poll:(Time.us 25) ()) a;
        Engine.spawn e (fun () ->
            Transport.send ~kick:true a [| Bytes.of_string "req" |];
            (* Long gap — but the peer posts a reply meanwhile, so its
               worker is awake and polling when the next request
               lands. *)
            Engine.delay (Time.us 200);
            Transport.send a [| Bytes.of_string "follow-up" |]);
        Engine.spawn e (fun () ->
            Engine.delay (Time.us 190);
            Transport.send b [| Bytes.of_string "reply" |]);
        Engine.run e;
        Alcotest.(check int) "follow-up needed no notify" 1
          (Transport.db_notifies a);
        Alcotest.(check int) "one suppressed" 1 (Transport.db_suppressed a));
    Alcotest.test_case "doorbell off: shm-ring path is untouched" `Quick
      (fun () ->
        (* Same traffic with and without an armed-but-idle doorbell
           config on an unrelated endpoint: the unarmed endpoint must
           time exactly as the historical eager path. *)
        let run arm =
          let e = Engine.create () in
          let a, b = Transport.shm_ring e ~virt in
          if arm then Transport.set_doorbell ~cfg:(db_cfg ()) b;
          let finished = ref 0 in
          Engine.spawn e (fun () ->
              for _ = 1 to 20 do
                Transport.send a [| Bytes.of_string "payload" |];
                Engine.delay (Time.us 1)
              done;
              finished := Engine.now e);
          Engine.run e;
          !finished
        in
        Alcotest.(check int) "identical virtual time" (run false) (run true));
  ]

(* --- crash / restart / requeue -------------------------------------------- *)

let crash_tests =
  [
    Alcotest.test_case "server crash mid-workload recovers" `Slow (fun () ->
        let b = Option.get (Rodinia.find "bfs") in
        (* Baseline runtime to place the outage mid-run. *)
        let plain, _, _ = run_chaos ~kind:Transport.Shm_ring b.Rodinia.run in
        let e = Engine.create () in
        let host = Host.create_cl_host e in
        (* A short retry period so recovery happens within the outage
           scale rather than dominating the run. *)
        let retry =
          { Stub.timeout_ns = Time.ms 1; max_retries = 40; backoff = 1.5; jitter = 0.0 }
        in
        let guest =
          Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring) ~retry
            ~name:"guest"
        in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        let outage = Stdlib.max (Time.us 500) (plain / 10) in
        let requeued = ref 0 in
        Engine.spawn e (fun () ->
            Engine.delay (plain / 2);
            Server.crash host.Host.server ~vm_id;
            Engine.delay outage;
            Server.restart host.Host.server ~vm_id;
            requeued := Router.requeue_in_flight host.Host.router ~vm_id);
        let finished_at =
          Engine.run_process e (fun () ->
              b.Rodinia.run guest.Host.g_api;
              Engine.now e)
        in
        let server = host.Host.server in
        Alcotest.(check bool) "outage slowed the run" true
          (finished_at > plain);
        Alcotest.(check int) "one restart" 1 (Server.restarts server);
        Alcotest.(check bool) "messages were lost while down" true
          (Server.lost_while_down server > 0);
        Alcotest.(check bool) "stub retransmitted" true
          (Stub.retries (stub_of guest) > 0);
        Alcotest.(check int) "no call gave up" 0
          (Stub.timeouts (stub_of guest));
        Alcotest.(check int) "ledger drained at the end" 0
          (Router.in_flight_calls host.Host.router ~vm_id));
    Alcotest.test_case "duplicate delivery replays, never re-executes"
      `Quick (fun () ->
        (* Crash, let the stub resend into the void, restart, requeue:
           the requeued originals and the watchdog resends both arrive,
           so the server must serve some seqs from its reply log. *)
        let b = Option.get (Rodinia.find "nn") in
        let plain, _, _ = run_chaos ~kind:Transport.Shm_ring b.Rodinia.run in
        let e = Engine.create () in
        let host = Host.create_cl_host e in
        let retry =
          { Stub.timeout_ns = Time.us 200; max_retries = 60; backoff = 1.2; jitter = 0.0 }
        in
        let guest =
          Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring) ~retry
            ~name:"guest"
        in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        Engine.spawn e (fun () ->
            Engine.delay (plain / 2);
            Server.crash host.Host.server ~vm_id;
            Engine.delay (Time.ms 1);
            Server.restart host.Host.server ~vm_id;
            ignore (Router.requeue_in_flight host.Host.router ~vm_id));
        let exec_native =
          let e0 = Engine.create () in
          let h0 = Host.create_cl_host e0 in
          let g0 =
            Host.add_cl_vm h0 ~technique:(Host.Ava Transport.Shm_ring)
              ~name:"guest"
          in
          Engine.run_process e0 (fun () -> b.Rodinia.run g0.Host.g_api);
          Server.executed h0.Host.server
        in
        Engine.run_process e (fun () -> b.Rodinia.run guest.Host.g_api);
        Alcotest.(check int) "each call executed exactly once" exec_native
          (Server.executed host.Host.server));
    Alcotest.test_case "duplicate seq is answered from the reply log" `Quick
      (fun () ->
        (* Deterministic replay check: the same encoded Call frame twice
           on a server endpoint executes once and replays once. *)
        let e = Engine.create () in
        let plan =
          Result.get_ok
            (Ava_codegen.Plan.compile (Ava_spec.Specs.load_simcl ()))
        in
        let client_end, server_end = Transport.direct e in
        let server =
          Server.create e ~plan ~make_state:(fun ~vm_id -> ref vm_id)
        in
        Server.register server "clGetPlatformIDs" (fun _ _ _ ->
            (0, Ava_remoting.Wire.int 1, []));
        ignore (Server.attach_vm server ~vm_id:1 ~ep:server_end);
        let call =
          Ava_remoting.Message.iovec ~copy:false
            (Ava_remoting.Message.Call
               {
                 call_seq = 0;
                 call_vm = 1;
                 call_fn = "clGetPlatformIDs";
                 call_args = [];
               })
        in
        let r1, r2 =
          Engine.run_process e (fun () ->
              Transport.send client_end call;
              let r1 = Transport.recv client_end in
              Transport.send client_end call;
              let r2 = Transport.recv client_end in
              (r1, r2))
        in
        Alcotest.(check string) "identical replies"
          (Bytes.to_string r1.(0)) (Bytes.to_string r2.(0));
        Alcotest.(check int) "executed once" 1 (Server.executed server);
        Alcotest.(check int) "replayed once" 1 (Server.replayed server));
  ]

(* --- transfer cache under faults ------------------------------------------ *)

module Wire = Ava_remoting.Wire

let cache_capacity = 64 * 1024 * 1024

(* Run a program twice on one cache-armed guest (iterative deployment:
   the second run's uploads dedup), with optional faults/retry. *)
let run_cached_chaos ?faults ?retry program =
  let e = Engine.create () in
  let host = Host.create_cl_host ~transfer_cache:cache_capacity e in
  let guest =
    Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring) ?faults
      ?retry ~name:"guest"
  in
  let finished_at =
    Engine.run_process e (fun () ->
        program guest.Host.g_api;
        program guest.Host.g_api;
        Engine.now e)
  in
  (finished_at, host, guest)

(* Raw server endpoint with the cache on, so tests can drive the
   announce/ref/NAK protocol frame by frame — including the frames a
   well-behaved stub would never send twice. *)
let raw_cached_server e =
  let plan =
    Result.get_ok (Ava_codegen.Plan.compile (Ava_spec.Specs.load_simcl ()))
  in
  let client_end, server_end = Transport.direct e in
  let server =
    Server.create e ~cache_capacity ~plan ~make_state:(fun ~vm_id -> ref vm_id)
  in
  Server.register server "clEnqueueWriteBuffer" (fun _ _ args ->
      match args with
      | [ Wire.Blob b ] -> (0, Wire.int (Bytes.length b), [])
      | _ -> (Server.status_bad_arguments, Wire.Unit, []));
  ignore (Server.attach_vm server ~vm_id:1 ~ep:server_end);
  (client_end, server)

let call_frame seq args =
  Message.iovec ~copy:false
    (Message.Call
       { call_seq = seq; call_vm = 1; call_fn = "clEnqueueWriteBuffer";
         call_args = args })

let recv_msg ep =
  Result.get_ok (Message.read_message (Message.decoder ~share:false) (Transport.recv ep))

let cache_chaos_tests =
  [
    (* A guest that never sees the NAK (lost on the wire): the server
       must NAK every redelivered stale ref, hold the seq unexecuted,
       and accept the eventual full resend under the same seq. *)
    Alcotest.test_case "dropped nak: ref redelivery re-naks, full resend lands"
      `Quick (fun () ->
        let e = Engine.create () in
        let client_end, server = raw_cached_server e in
        let payload = Bytes.make 4096 'n' in
        let d = Wire.digest payload in
        let ref_frame =
          call_frame 0 [ Wire.Blob_ref { br_digest = d; br_size = 4096 } ]
        in
        let full_frame =
          call_frame 0 [ Wire.Blob_cached { bc_digest = d; bc_data = payload } ]
        in
        Engine.run_process e (fun () ->
            (* Stale ref: the store has never seen this digest. *)
            Transport.send client_end ref_frame;
            (match recv_msg client_end with
            | Message.Nak n ->
                Alcotest.(check int) "nak seq" 0 n.Message.nak_seq;
                Alcotest.(check bool) "nak names the digest" true
                  (List.exists (Int64.equal d) n.Message.nak_digests)
            | _ -> Alcotest.fail "expected a nak");
            (* The guest never saw that NAK; its watchdog resends the
               same ref frame.  The server must NAK again, not park. *)
            Transport.send client_end ref_frame;
            (match recv_msg client_end with
            | Message.Nak _ -> ()
            | _ -> Alcotest.fail "expected a second nak");
            (* The NAK finally gets through: full resend, same seq. *)
            Transport.send client_end full_frame;
            match recv_msg client_end with
            | Message.Reply r ->
                Alcotest.(check int) "status" 0 r.Message.reply_status
            | _ -> Alcotest.fail "expected the reply");
        Alcotest.(check int) "two naks" 2 (Server.naks_sent server);
        Alcotest.(check int) "executed once" 1 (Server.executed server);
        let c = Server.cache_totals server in
        Alcotest.(check int) "two misses" 2 c.Server.cs_misses;
        Alcotest.(check int) "payload stored on resend" 1 c.Server.cs_insertions);
    (* A duplicated ref frame for an already-executed seq must replay
       from the reply log without touching the content store. *)
    Alcotest.test_case "duplicated blob_ref frame replays, store untouched"
      `Quick (fun () ->
        let e = Engine.create () in
        let client_end, server = raw_cached_server e in
        let payload = Bytes.make 4096 'd' in
        let d = Wire.digest payload in
        let announce =
          call_frame 0 [ Wire.Blob_cached { bc_digest = d; bc_data = payload } ]
        in
        let ref_frame =
          call_frame 1 [ Wire.Blob_ref { br_digest = d; br_size = 4096 } ]
        in
        Engine.run_process e (fun () ->
            Transport.send client_end announce;
            (match recv_msg client_end with
            | Message.Reply _ -> ()
            | _ -> Alcotest.fail "announce not replied");
            Transport.send client_end ref_frame;
            (match recv_msg client_end with
            | Message.Reply _ -> ()
            | _ -> Alcotest.fail "ref not replied");
            (* Duplicate delivery of the ref frame (router requeue or
               watchdog): replay, don't resolve again. *)
            Transport.send client_end ref_frame;
            match recv_msg client_end with
            | Message.Reply r ->
                Alcotest.(check int) "replayed status" 0 r.Message.reply_status
            | _ -> Alcotest.fail "duplicate not replied");
        Alcotest.(check int) "executed once per seq" 2 (Server.executed server);
        Alcotest.(check int) "duplicate replayed" 1 (Server.replayed server);
        let c = Server.cache_totals server in
        Alcotest.(check int) "one hit only" 1 c.Server.cs_hits;
        Alcotest.(check int) "one insertion only" 1 c.Server.cs_insertions);
    (* A corrupted announce (digest does not match the payload) must not
       poison the store: the payload still executes, but nothing under
       that digest becomes resident. *)
    Alcotest.test_case "corrupt announce never poisons the store" `Quick
      (fun () ->
        let e = Engine.create () in
        let client_end, server = raw_cached_server e in
        let payload = Bytes.make 4096 'p' in
        let honest = Wire.digest payload in
        let lying = Int64.add honest 1L in
        let bad_announce =
          call_frame 0
            [ Wire.Blob_cached { bc_digest = lying; bc_data = payload } ]
        in
        let ref_frame =
          call_frame 1 [ Wire.Blob_ref { br_digest = lying; br_size = 4096 } ]
        in
        Engine.run_process e (fun () ->
            Transport.send client_end bad_announce;
            (match recv_msg client_end with
            | Message.Reply r ->
                Alcotest.(check int) "payload still executes" 0
                  r.Message.reply_status
            | _ -> Alcotest.fail "announce not replied");
            (* The lying digest must not resolve. *)
            Transport.send client_end ref_frame;
            match recv_msg client_end with
            | Message.Nak _ -> ()
            | _ -> Alcotest.fail "poisoned digest resolved");
        let c = Server.cache_totals server in
        Alcotest.(check int) "announce rejected" 1 c.Server.cs_rejected;
        Alcotest.(check int) "nothing resident" 0 c.Server.cs_resident_bytes);
    (* Server restart mid-run: the content store is front-end process
       memory, so it empties; the guest's stale refs NAK and heal. *)
    Alcotest.test_case "server restart empties the store mid-run" `Slow
      (fun () ->
        let b = Option.get (Rodinia.find "heartwall") in
        let plain, _, _ =
          run_cached_chaos (fun api -> b.Rodinia.run api)
        in
        let e = Engine.create () in
        let host = Host.create_cl_host ~transfer_cache:cache_capacity e in
        let retry =
          { Stub.timeout_ns = Time.ms 1; max_retries = 40; backoff = 1.5; jitter = 0.0 }
        in
        let guest =
          Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring) ~retry
            ~name:"guest"
        in
        let vm_id = Ava_hv.Vm.id guest.Host.g_vm in
        Engine.spawn e (fun () ->
            Engine.delay (plain / 2);
            Server.crash host.Host.server ~vm_id;
            Engine.delay (Time.ms 1);
            Server.restart host.Host.server ~vm_id;
            ignore (Router.requeue_in_flight host.Host.router ~vm_id));
        Engine.run_process e (fun () ->
            b.Rodinia.run guest.Host.g_api;
            b.Rodinia.run guest.Host.g_api);
        let stub = stub_of guest in
        Alcotest.(check int) "one restart" 1 (Server.restarts host.Host.server);
        Alcotest.(check int) "no call gave up" 0 (Stub.timeouts stub);
        (* Heartwall refs the same frame from iteration 2 on, so stale
           refs after the restart are guaranteed: they must have healed
           through NAK + full resend. *)
        Alcotest.(check bool) "restart invalidated refs" true
          (Server.naks_sent host.Host.server > 0);
        Alcotest.(check bool) "stub resent full payloads" true
          (Stub.cache_nak_resends stub > 0);
        Alcotest.(check bool) "cache still hits after healing" true
          ((Server.cache_totals host.Host.server).Server.cs_hits > 0));
    (* The disable knob: capacity 0 must be byte- and cycle-identical to
       the historical stack — same virtual time, same wire traffic. *)
    Alcotest.test_case "capacity 0 is bit-identical to the plain stack"
      `Quick (fun () ->
        let b = Option.get (Rodinia.find "backprop") in
        let measure host_of =
          let e = Engine.create () in
          let host = host_of e in
          let guest =
            Host.add_cl_vm host ~technique:(Host.Ava Transport.Shm_ring)
              ~name:"guest"
          in
          let t =
            Engine.run_process e (fun () ->
                b.Rodinia.run guest.Host.g_api;
                Engine.now e)
          in
          (t, Ava_hv.Vm.bytes_transferred guest.Host.g_vm)
        in
        let t0, bytes0 = measure (fun e -> Host.create_cl_host e) in
        let t1, bytes1 =
          measure (fun e -> Host.create_cl_host ~transfer_cache:0 e)
        in
        Alcotest.(check int) "identical virtual time" t0 t1;
        Alcotest.(check int) "identical wire bytes" bytes0 bytes1);
  ]

(* All ten Rodinia workloads, cache armed, light faults and the retry
   watchdog: every run must still complete correctly. *)
let cached_chaos_case i (b : Rodinia.benchmark) =
  Alcotest.test_case
    (Printf.sprintf "%s survives faults with the cache armed" b.Rodinia.name)
    `Slow
    (fun () ->
      let faults =
        Faults.create ~seed:(Int64.of_int ((i * 53) + 211)) Faults.light
      in
      let _, host, guest =
        run_cached_chaos ~faults ~retry:Stub.default_retry b.Rodinia.run
      in
      let stub = stub_of guest in
      Alcotest.(check int) "no call gave up" 0 (Stub.timeouts stub);
      Alcotest.(check bool) "second run dedup'd" true
        (Stub.cache_refs stub > 0);
      (* A corrupted or duplicated frame must never leave a wrong payload
         resident: every miss the server reported was healed by a full
         resend, and rejected announces never became insertions. *)
      let c = Server.cache_totals host.Host.server in
      if c.Server.cs_misses > 0 then
        Alcotest.(check bool) "misses healed by resends" true
          (Stub.cache_nak_resends stub > 0))

let cached_chaos_tests = List.mapi cached_chaos_case Rodinia.all

let () =
  Alcotest.run "ava_faults"
    [
      ("seal", seal_tests);
      ("injection", injection_tests);
      ("chaos", chaos_tests);
      ("determinism", determinism_tests);
      ("doorbell", doorbell_tests);
      ("crash", crash_tests);
      ("cache-protocol", cache_chaos_tests);
      ("cache-chaos", cached_chaos_tests);
    ]
