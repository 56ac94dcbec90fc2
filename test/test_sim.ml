(* Tests for the discrete-event core: engine ordering, processes,
   channels, semaphores, ivars, RNG determinism and statistics. *)

open Ava_sim

let time_tests =
  [
    Alcotest.test_case "unit conversions" `Quick (fun () ->
        Alcotest.(check int) "us" 1_000 (Time.us 1);
        Alcotest.(check int) "ms" 1_000_000 (Time.ms 1);
        Alcotest.(check int) "s" 1_000_000_000 (Time.s 1);
        Alcotest.(check int) "float us" 1_500 (Time.of_float_us 1.5);
        Alcotest.(check (float 1e-9)) "roundtrip" 2.5
          (Time.to_float_us (Time.of_float_us 2.5)));
    Alcotest.test_case "bandwidth duration" `Quick (fun () ->
        (* 1 GB/s, 1 MiB -> ~1.049 ms *)
        let d = Time.of_bandwidth ~bytes:(1024 * 1024) ~bytes_per_s:1e9 in
        Alcotest.(check bool)
          "about 1ms" true
          (d > Time.us 1000 && d < Time.us 1100);
        Alcotest.(check int) "zero bytes free" 0
          (Time.of_bandwidth ~bytes:0 ~bytes_per_s:1e9);
        Alcotest.(check bool)
          "never free when data moves" true
          (Time.of_bandwidth ~bytes:1 ~bytes_per_s:1e12 >= 1));
    Alcotest.test_case "pretty printing" `Quick (fun () ->
        Alcotest.(check string) "ns" "123ns" (Time.to_string 123);
        Alcotest.(check string) "us" "12.000us" (Time.to_string (Time.us 12));
        Alcotest.(check string)
          "ms" "3.500ms"
          (Time.to_string (Time.us 3_500)));
  ]

(* The engine's drain: read the root's key and seq, then pop it. *)
let pop h =
  if Heap.is_empty h then None
  else
    let key = Heap.unsafe_min_key h and seq = Heap.unsafe_min_seq h in
    Some (key, seq, Heap.unsafe_pop h)

let heap_tests =
  [
    Alcotest.test_case "pop order is (key, seq)" `Quick (fun () ->
        let h = Heap.create () in
        Heap.add h ~key:5 ~seq:1 "a";
        Heap.add h ~key:3 ~seq:2 "b";
        Heap.add h ~key:5 ~seq:0 "c";
        Heap.add h ~key:1 ~seq:9 "d";
        let order = ref [] in
        let rec drain () =
          match pop h with
          | None -> ()
          | Some (_, _, payload) ->
              order := payload :: !order;
              drain ()
        in
        drain ();
        Alcotest.(check (list string))
          "order" [ "d"; "b"; "c"; "a" ] (List.rev !order));
    Alcotest.test_case "empty pop" `Quick (fun () ->
        let h : int Heap.t = Heap.create () in
        Alcotest.(check bool) "none" true (pop h = None);
        Alcotest.(check int) "size" 0 (Heap.size h));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"heap sorts any key sequence" ~count:200
         QCheck.(list small_int)
         (fun keys ->
           let h = Heap.create () in
           List.iteri (fun i k -> Heap.add h ~key:k ~seq:i k) keys;
           let rec drain acc =
             match pop h with
             | None -> List.rev acc
             | Some (key, _, _) -> drain (key :: acc)
           in
           drain [] = List.sort compare keys));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"heap matches sorted-list model under push/pop interleavings"
         ~count:300
         QCheck.(list (pair bool (int_range 0 15)))
         (fun ops ->
           (* Model: a stably sorted assoc list of (key, seq); the heap
              must pop in exactly (key, seq) order, so same-key entries
              fire in insertion order. *)
           let h = Heap.create () in
           let model = ref [] in
           let seq = ref 0 in
           let insert k s =
             let rec go = function
               | (k', s') :: rest when k' < k || (k' = k && s' < s) ->
                   (k', s') :: go rest
               | rest -> (k, s) :: rest
             in
             model := go !model
           in
           let pop_matches () =
             match (pop h, !model) with
             | None, [] -> true
             | Some (key, seq, payload), (k', s') :: rest ->
                 model := rest;
                 key = k' && seq = s' && payload = s'
             | _ -> false
           in
           List.for_all
             (fun (is_push, k) ->
               if is_push then begin
                 incr seq;
                 Heap.add h ~key:k ~seq:!seq !seq;
                 insert k !seq;
                 true
               end
               else pop_matches ())
             ops
           &&
           (* Drain whatever is left; sizes must agree throughout. *)
           let rec drain () =
             Heap.size h = List.length !model
             && ((Heap.is_empty h && !model = []) || (pop_matches () && drain ()))
           in
           drain ()));
    Alcotest.test_case "popped payloads are not retained" `Quick (fun () ->
        (* Regression: an old pop left the payload behind in the
           backing array, pinning every popped closure (and whatever it
           captured) until the slot was overwritten. *)
        let h : bytes Heap.t = Heap.create () in
        let w = Weak.create 8 in
        for i = 0 to 7 do
          let payload = Bytes.make 4096 'x' in
          Weak.set w i (Some payload);
          Heap.add h ~key:(i * 3 mod 7) ~seq:i payload
        done;
        while pop h <> None do
          ()
        done;
        Gc.full_major ();
        for i = 0 to 7 do
          Alcotest.(check bool)
            (Printf.sprintf "payload %d collected" i)
            false (Weak.check w i)
        done;
        (* Keep the (empty) heap itself alive past the checks. *)
        Alcotest.(check int) "drained" 0 (Heap.size h));
    Alcotest.test_case "drained heap retains no live words" `Quick (fun () ->
        let h : bytes Heap.t = Heap.create () in
        Gc.full_major ();
        let base = (Gc.stat ()).Gc.live_words in
        for i = 0 to 63 do
          Heap.add h ~key:(i * 7 mod 13) ~seq:i (Bytes.make 4096 'x')
        done;
        while pop h <> None do
          ()
        done;
        Gc.full_major ();
        let after = (Gc.stat ()).Gc.live_words in
        (* The 64 x 4 KiB payloads alone would be ~32k words; a drained
           heap must hold none of them.  The slack covers the heap's own
           int arrays and allocator noise. *)
        Alcotest.(check bool) "live words back to baseline" true
          (after - base < 16_384);
        Alcotest.(check int) "still empty" 0 (Heap.size h));
  ]

let engine_tests =
  [
    Alcotest.test_case "events fire in time order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        Engine.schedule e ~at:30 (fun () -> log := 30 :: !log);
        Engine.schedule e ~at:10 (fun () -> log := 10 :: !log);
        Engine.schedule e ~at:20 (fun () -> log := 20 :: !log);
        Engine.run e;
        Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log);
        Alcotest.(check int) "clock at last event" 30 (Engine.now e));
    Alcotest.test_case "same-time events fire in insertion order" `Quick
      (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        for i = 1 to 5 do
          Engine.schedule e ~at:7 (fun () -> log := i :: !log)
        done;
        Engine.run e;
        Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.rev !log));
    Alcotest.test_case "delay advances virtual time" `Quick (fun () ->
        let e = Engine.create () in
        let seen = ref [] in
        Engine.spawn e (fun () ->
            seen := Engine.now e :: !seen;
            Engine.delay (Time.us 5);
            seen := Engine.now e :: !seen;
            Engine.delay (Time.us 10);
            seen := Engine.now e :: !seen);
        Engine.run e;
        Alcotest.(check (list int))
          "times" [ 0; 5_000; 15_000 ] (List.rev !seen));
    Alcotest.test_case "run ~until stops at horizon" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref 0 in
        Engine.schedule e ~at:100 (fun () -> incr fired);
        Engine.schedule e ~at:200 (fun () -> incr fired);
        Engine.run ~until:150 e;
        Alcotest.(check int) "one fired" 1 !fired;
        Alcotest.(check int) "clock at horizon" 150 (Engine.now e);
        Engine.run e;
        Alcotest.(check int) "rest fired" 2 !fired);
    Alcotest.test_case "run ~until on empty engine advances clock" `Quick
      (fun () ->
        (* Regression: with nothing queued the clock used to stay at 0
           instead of advancing to the horizon. *)
        let e = Engine.create () in
        Engine.run ~until:500 e;
        Alcotest.(check int) "clock at horizon" 500 (Engine.now e));
    Alcotest.test_case "run ~until after drain advances clock" `Quick
      (fun () ->
        let e = Engine.create () in
        Engine.schedule e ~at:100 (fun () -> ());
        Engine.run e;
        Alcotest.(check int) "drained at 100" 100 (Engine.now e);
        Engine.run ~until:300 e;
        Alcotest.(check int) "advanced to horizon" 300 (Engine.now e);
        (* A horizon in the past never moves the clock backwards. *)
        Engine.run ~until:50 e;
        Alcotest.(check int) "clock never rewinds" 300 (Engine.now e));
    Alcotest.test_case "same instant drains heap, wheel, ring in seq order"
      `Quick (fun () ->
        (* Three events land on instant 2000 via the three internal
           containers: scheduled from t=0 at distance 2000 (min-heap),
           from t=1500 at distance 500 (calendar wheel), and during the
           instant itself (immediate ring).  Sequence numbers are
           monotonic, so draining heap -> wheel -> ring per instant is
           exactly (time, seq) order. *)
        let e = Engine.create () in
        let log = ref [] in
        Engine.schedule e ~at:2000 (fun () ->
            log := "heap" :: !log;
            Engine.schedule e ~at:2000 (fun () -> log := "ring" :: !log));
        Engine.schedule e ~at:1500 (fun () ->
            Engine.schedule e ~at:2000 (fun () -> log := "wheel" :: !log));
        Engine.run e;
        Alcotest.(check (list string))
          "container drain order" [ "heap"; "wheel"; "ring" ] (List.rev !log);
        Alcotest.(check int) "clock" 2000 (Engine.now e));
    Alcotest.test_case "processes interleave deterministically" `Quick
      (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        let worker tag pause =
          Engine.spawn e (fun () ->
              for i = 1 to 3 do
                Engine.delay pause;
                log := Printf.sprintf "%s%d" tag i :: !log
              done)
        in
        worker "a" (Time.us 2);
        worker "b" (Time.us 3);
        Engine.run e;
        Alcotest.(check (list string))
          "interleaving"
          (* a fires at 2,4,6; b at 3,6,9 — the t=6 tie goes to b2, whose
             continuation was scheduled first (at t=3 vs t=4). *)
          [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
          (List.rev !log));
    Alcotest.test_case "run_process returns value" `Quick (fun () ->
        let e = Engine.create () in
        let v =
          Engine.run_process e (fun () ->
              Engine.delay 42;
              "done")
        in
        Alcotest.(check string) "value" "done" v;
        Alcotest.(check int) "time" 42 (Engine.now e));
    Alcotest.test_case "run_process detects stalled process" `Quick (fun () ->
        let e = Engine.create () in
        Alcotest.check_raises "stalled"
          (Engine.Stalled "Engine.run_process: process never completed")
          (fun () ->
            ignore
              (Engine.run_process e (fun () ->
                   (* Park where nobody ever wakes it. *)
                   Engine.park (Engine.waitq ())))));
    Alcotest.test_case "negative delay clamps to zero" `Quick (fun () ->
        let e = Engine.create () in
        Engine.run_process e (fun () -> Engine.delay (-5));
        Alcotest.(check int) "clock" 0 (Engine.now e));
    Alcotest.test_case "process exceptions escape the run loop" `Quick
      (fun () ->
        let e = Engine.create () in
        Engine.spawn e (fun () ->
            Engine.delay 5;
            failwith "boom");
        (match Engine.run e with
        | () -> Alcotest.fail "exception was swallowed"
        | exception Failure msg -> Alcotest.(check string) "msg" "boom" msg);
        (* The failing process is accounted dead. *)
        Alcotest.(check int) "no live process" 0 (Engine.live_processes e));
    Alcotest.test_case "spawned counter" `Quick (fun () ->
        let e = Engine.create () in
        Engine.spawn e (fun () -> ());
        Engine.spawn e (fun () -> Engine.delay 1);
        Engine.run e;
        Alcotest.(check int) "spawned" 2 (Engine.spawned e);
        Alcotest.(check int) "live" 0 (Engine.live_processes e));
  ]

(* Minor-heap words per round of a two-process loop, counted inside
   the first process after [warm] rounds, so spawns and ring growth fall
   outside the window.  [first] and [second] run one round each. *)
let words_per_round ?(warm = 100) ?(rounds = 1000) first second =
  let e = Engine.create () in
  let before = ref 0.0 and after = ref 0.0 in
  Engine.spawn e (fun () ->
      for i = 1 to warm + rounds do
        if i = warm + 1 then before := Gc.minor_words ();
        first i
      done;
      after := Gc.minor_words ());
  Engine.spawn e (fun () ->
      for i = 1 to warm + rounds do
        second i
      done);
  Engine.run e;
  (!after -. !before) /. float_of_int rounds

(* What the effects runtime allocates to suspend a process (its
   continuation), measured on a [delay 0] loop; the wait budgets below
   are stated beyond it, so they hold whatever the compiler version
   allocates there. *)
let continuation_words () =
  words_per_round (fun _ -> Engine.delay 0) (fun _ -> Engine.delay 0) /. 2.0

let check_wait_budget what ~waits words ~beyond =
  let per_wait = (words /. waits) -. continuation_words () in
  if per_wait > beyond then
    Alcotest.failf
      "%s: %.2f words per wait beyond the continuation, budget %.1f" what
      per_wait beyond

(* Processes that stay parked on a channel, an ivar and a semaphore, each
   holding a 1 MiB buffer the [held] weak array watches. *)
let[@inline never] park_forever held =
  let e = Engine.create () in
  let c = Channel.create () and iv = Ivar.create () in
  let sem = Semaphore.create 1 in
  let hold i wait =
    Engine.spawn e (fun () ->
        let buf = Bytes.create (1 lsl 20) in
        Weak.set held i (Some buf);
        wait ();
        ignore (Sys.opaque_identity buf))
  in
  hold 0 (fun () -> ignore (Channel.recv c));
  hold 1 (fun () -> ignore (Ivar.read iv));
  Engine.spawn e (fun () ->
      Semaphore.with_acquired sem (fun () -> ignore (Channel.recv c)));
  hold 2 (fun () -> Semaphore.with_acquired sem ignore);
  Engine.run e;
  Alcotest.(check int) "all parked" 4 (Engine.live_processes e)

let wait_tests =
  [
    Alcotest.test_case "waking a process that is not parked raises" `Quick
      (fun () ->
        let e = Engine.create () in
        let q = Engine.waitq () in
        let got = ref 0 in
        Engine.spawn e (fun () -> got := Engine.park q);
        Engine.run e;
        Alcotest.(check bool) "parked" true (Engine.parked q);
        Engine.wake q 7;
        (* The woken process is no longer parked: a second wake finds
           nobody, before or after the first one resumes it. *)
        let not_parked () = Engine.wake q 8 in
        Alcotest.check_raises "woken twice"
          (Invalid_argument "Engine.wake: no process is parked") not_parked;
        Engine.run e;
        Alcotest.(check int) "value handed over" 7 !got;
        Alcotest.check_raises "after resuming"
          (Invalid_argument "Engine.wake: no process is parked") not_parked);
    Alcotest.test_case "a wake takes its place in same-instant order" `Quick
      (fun () ->
        (* The woken process goes through the ring with the next seq, so
           it runs after what was already scheduled for this instant and
           before what is scheduled after the wake. *)
        let e = Engine.create () in
        let q = Engine.waitq () in
        let log = ref [] in
        Engine.spawn e (fun () ->
            Engine.park q;
            log := "woken" :: !log);
        Engine.schedule e ~at:5 (fun () ->
            Engine.schedule e ~at:5 (fun () -> log := "before" :: !log);
            Engine.wake q ();
            Engine.schedule e ~at:5 (fun () -> log := "after" :: !log));
        Engine.run e;
        Alcotest.(check (list string))
          "order" [ "before"; "woken"; "after" ] (List.rev !log));
    Alcotest.test_case "allocation budget: channel ping-pong" `Quick
      (fun () ->
        let req = Channel.create ~capacity:1 ()
        and resp = Channel.create ~capacity:1 () in
        let words =
          words_per_round
            (fun i ->
              Channel.send req i;
              ignore (Channel.recv resp))
            (fun _ -> Channel.send resp (Channel.recv req))
        in
        (* Two waits per round.  The budget catches a closure chain per
           wait (registration and resume closures, effect box, acceptor,
           queue cell), which costs about 30 words. *)
        check_wait_budget "channel ping-pong" ~waits:2.0 words ~beyond:2.0);
    Alcotest.test_case "allocation budget: ivar read then fill" `Quick
      (fun () ->
        let n = 1100 in
        let a = Array.init n (fun _ -> Ivar.create ())
        and b = Array.init n (fun _ -> Ivar.create ()) in
        let words =
          words_per_round
            (fun i ->
              Ivar.fill a.(i - 1) ();
              Ivar.read b.(i - 1))
            (fun i ->
              Ivar.read a.(i - 1);
              Ivar.fill b.(i - 1) ())
        in
        (* Two waits per round; the budget holds each fill's [Full]
           cell. *)
        check_wait_budget "ivar read then fill" ~waits:2.0 words ~beyond:4.0);
    Alcotest.test_case "allocation budget: ivar filled before it is read"
      `Quick (fun () ->
        (* Nothing blocks, so an ivar costs its own two-field record
           (3 words): no wait queue and no box around the value.  The
           half word of slack covers the window's boxed counter read. *)
        let words =
          words_per_round
            (fun i ->
              let iv = Sys.opaque_identity (Ivar.create ()) in
              Ivar.fill iv i;
              ignore (Sys.opaque_identity (Ivar.read iv)))
            (fun _ -> ())
        in
        if words > 3.5 then
          Alcotest.failf
            "ivar filled then read: %.2f words per ivar, budget 3.5" words);
    Alcotest.test_case "a finished simulation can be collected" `Quick
      (fun () ->
        let held = Weak.create 3 in
        park_forever held;
        Gc.full_major ();
        for i = 0 to 2 do
          Alcotest.(check bool)
            (Printf.sprintf "buffer %d collected" i)
            false (Weak.check held i)
        done);
  ]

let ivar_tests =
  [
    Alcotest.test_case "read blocks until fill" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Ivar.create () in
        let got = ref None in
        Engine.spawn e (fun () -> got := Some (Ivar.read iv));
        Engine.spawn e (fun () ->
            Engine.delay (Time.us 10);
            Ivar.fill iv 99);
        Engine.run e;
        Alcotest.(check (option int)) "value" (Some 99) !got;
        Alcotest.(check int) "filled at fill time" (Time.us 10) (Engine.now e));
    Alcotest.test_case "read after fill is immediate" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Ivar.create () in
        Ivar.fill iv 7;
        let v = Engine.run_process e (fun () -> Ivar.read iv) in
        Alcotest.(check int) "value" 7 v);
    Alcotest.test_case "double fill rejected" `Quick (fun () ->
        let iv = Ivar.create () in
        Ivar.fill iv 1;
        Alcotest.check_raises "refilled"
          (Invalid_argument "Ivar.fill: already filled") (fun () ->
            Ivar.fill iv 2);
        Ivar.fill_if_empty iv 3;
        let e = Engine.create () in
        Alcotest.(check int) "unchanged" 1
          (Engine.run_process e (fun () -> Ivar.read iv)));
    Alcotest.test_case "multiple waiters all resume" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Ivar.create () in
        let sum = ref 0 in
        for _ = 1 to 4 do
          Engine.spawn e (fun () -> sum := !sum + Ivar.read iv)
        done;
        Engine.spawn e (fun () ->
            Engine.delay 5;
            Ivar.fill iv 10);
        Engine.run e;
        Alcotest.(check int) "sum" 40 !sum);
    Alcotest.test_case "parked readers wake oldest-first" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Ivar.create () in
        let log = ref [] in
        for i = 1 to 4 do
          Engine.spawn e (fun () ->
              ignore (Ivar.read iv);
              log := i :: !log)
        done;
        Engine.spawn e (fun () -> Ivar.fill iv ());
        Engine.run e;
        Alcotest.(check (list int)) "fifo wake order" [ 1; 2; 3; 4 ]
          (List.rev !log));
  ]

let channel_tests =
  [
    Alcotest.test_case "fifo order" `Quick (fun () ->
        let e = Engine.create () in
        let c = Channel.create () in
        let got = ref [] in
        Engine.spawn e (fun () ->
            for i = 1 to 5 do
              Channel.send c i
            done);
        Engine.spawn e (fun () ->
            for _ = 1 to 5 do
              got := Channel.recv c :: !got
            done);
        Engine.run e;
        Alcotest.(check (list int)) "order" [ 1; 2; 3; 4; 5 ] (List.rev !got));
    Alcotest.test_case "recv blocks until send" `Quick (fun () ->
        let e = Engine.create () in
        let c = Channel.create () in
        let at = ref (-1) in
        Engine.spawn e (fun () ->
            ignore (Channel.recv c);
            at := Engine.now e);
        Engine.spawn e (fun () ->
            Engine.delay (Time.us 3);
            Channel.send c ());
        Engine.run e;
        Alcotest.(check int) "resumed at send time" (Time.us 3) !at);
    Alcotest.test_case "bounded send blocks when full" `Quick (fun () ->
        let e = Engine.create () in
        let c = Channel.create ~capacity:2 () in
        let sent = ref [] in
        Engine.spawn e (fun () ->
            for i = 1 to 4 do
              Channel.send c i;
              sent := (i, Engine.now e) :: !sent
            done);
        Engine.spawn e (fun () ->
            Engine.delay (Time.us 10);
            for _ = 1 to 4 do
              ignore (Channel.recv c);
              Engine.delay (Time.us 10)
            done);
        Engine.run e;
        let times = List.rev_map snd !sent in
        (* First two sends immediate; the rest wait for receiver drains. *)
        Alcotest.(check bool) "first immediate" true (List.nth times 0 = 0);
        Alcotest.(check bool) "second immediate" true (List.nth times 1 = 0);
        Alcotest.(check bool)
          "third waits" true
          (List.nth times 2 >= Time.us 10));
    Alcotest.test_case "try operations" `Quick (fun () ->
        let c = Channel.create ~capacity:1 () in
        Alcotest.(check (option int)) "empty" None (Channel.try_recv c);
        Channel.send c 1;
        Alcotest.(check (option int)) "recv" (Some 1) (Channel.try_recv c);
        Alcotest.(check (option int)) "drained" None (Channel.try_recv c));
    Alcotest.test_case "parked receivers wake oldest-first" `Quick (fun () ->
        (* Five receivers park before any send; each send must hand its
           value to the longest-waiting receiver (FIFO), so receiver i
           gets value 100+i. *)
        let e = Engine.create () in
        let c = Channel.create () in
        let log = ref [] in
        for i = 1 to 5 do
          Engine.spawn e (fun () ->
              let v = Channel.recv c in
              log := (i, v) :: !log)
        done;
        Engine.spawn e (fun () ->
            Engine.delay 10;
            for v = 101 to 105 do
              Channel.send c v
            done);
        Engine.run e;
        Alcotest.(check (list (pair int int)))
          "fifo wake order"
          [ (1, 101); (2, 102); (3, 103); (4, 104); (5, 105) ]
          (List.rev !log));
    Alcotest.test_case "parked senders wake oldest-first" `Quick (fun () ->
        let e = Engine.create () in
        let c = Channel.create ~capacity:1 () in
        let completed = ref [] in
        for i = 1 to 5 do
          Engine.spawn e (fun () ->
              Channel.send c i;
              completed := i :: !completed)
        done;
        let got = ref [] in
        Engine.spawn e (fun () ->
            Engine.delay 10;
            for _ = 1 to 5 do
              got := Channel.recv c :: !got;
              Engine.delay 1
            done);
        Engine.run e;
        Alcotest.(check (list int))
          "messages in send order" [ 1; 2; 3; 4; 5 ] (List.rev !got);
        Alcotest.(check (list int))
          "senders complete oldest-first" [ 1; 2; 3; 4; 5 ]
          (List.rev !completed));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"channel preserves any message sequence"
         ~count:100
         QCheck.(list small_int)
         (fun msgs ->
           let e = Engine.create () in
           let c = Channel.create ~capacity:3 () in
           let got = ref [] in
           Engine.spawn e (fun () -> List.iter (Channel.send c) msgs);
           Engine.spawn e (fun () ->
               for _ = 1 to List.length msgs do
                 got := Channel.recv c :: !got;
                 Engine.delay 1
               done);
           Engine.run e;
           List.rev !got = msgs));
  ]

let semaphore_tests =
  [
    Alcotest.test_case "limits concurrency" `Quick (fun () ->
        let e = Engine.create () in
        let sem = Semaphore.create 2 in
        let active = ref 0 and peak = ref 0 in
        for _ = 1 to 6 do
          Engine.spawn e (fun () ->
              Semaphore.with_acquired sem (fun () ->
                  incr active;
                  if !active > !peak then peak := !active;
                  Engine.delay (Time.us 10);
                  decr active))
        done;
        Engine.run e;
        Alcotest.(check int) "peak" 2 !peak;
        Alcotest.(check int) "all released" 2 (Semaphore.available sem);
        (* Three waves of two; each wave takes 10us. *)
        Alcotest.(check int) "makespan" (Time.us 30) (Engine.now e));
    Alcotest.test_case "release without acquire rejected" `Quick (fun () ->
        let sem = Semaphore.create 1 in
        Alcotest.check_raises "over-release"
          (Invalid_argument "Semaphore.release: released more than acquired")
          (fun () -> Semaphore.release sem));
    Alcotest.test_case "with_acquired releases on exception" `Quick (fun () ->
        let e = Engine.create () in
        let sem = Semaphore.create 1 in
        Engine.spawn e (fun () ->
            try Semaphore.with_acquired sem (fun () -> failwith "boom")
            with Failure _ -> ());
        Engine.run e;
        Alcotest.(check int) "released" 1 (Semaphore.available sem));
    Alcotest.test_case "parked acquirers get the slot oldest-first" `Quick
      (fun () ->
        let e = Engine.create () in
        let sem = Semaphore.create 1 in
        let log = ref [] in
        for i = 0 to 4 do
          Engine.spawn e (fun () ->
              Semaphore.with_acquired sem (fun () ->
                  log := i :: !log;
                  Engine.delay 10))
        done;
        Engine.run e;
        Alcotest.(check (list int)) "fifo wake order" [ 0; 1; 2; 3; 4 ]
          (List.rev !log));
  ]

let rng_tests =
  [
    Alcotest.test_case "deterministic for a seed" `Quick (fun () ->
        let a = Rng.create 42L and b = Rng.create 42L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1L and b = Rng.create 2L in
        Alcotest.(check bool) "differ" true (Rng.next a <> Rng.next b));
    Alcotest.test_case "split streams are independent" `Quick (fun () ->
        let a = Rng.create 7L in
        let c = Rng.split a in
        Alcotest.(check bool) "differ" true (Rng.next a <> Rng.next c));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"float in [0,1)" ~count:500
         QCheck.(int64)
         (fun seed ->
           let r = Rng.create seed in
           let x = Rng.float r in
           x >= 0.0 && x < 1.0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"int within bound" ~count:500
         QCheck.(pair int64 (int_range 1 1000))
         (fun (seed, bound) ->
           let r = Rng.create seed in
           let x = Rng.int r bound in
           x >= 0 && x < bound));
    Alcotest.test_case "uniform_ns bounds" `Quick (fun () ->
        let r = Rng.create 3L in
        for _ = 1 to 100 do
          let x = Rng.uniform_ns r ~lo:10 ~hi:20 in
          Alcotest.(check bool) "in range" true (x >= 10 && x <= 20)
        done);
  ]

let stats_tests =
  [
    Alcotest.test_case "mean" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean [ 1.0; 2.0; 6.0 ]);
        Alcotest.(check bool) "empty is nan" true
          (Float.is_nan (Stats.mean [])));
  ]

let () =
  Alcotest.run "ava_sim"
    [
      ("time", time_tests);
      ("heap", heap_tests);
      ("engine", engine_tests);
      ("wait", wait_tests);
      ("ivar", ivar_tests);
      ("channel", channel_tests);
      ("semaphore", semaphore_tests);
      ("rng", rng_tests);
      ("stats", stats_tests);
    ]
