(* Tests for the observability layer: histogram bucketing properties,
   JSON printer/parser, the exporters (Prometheus golden, Chrome trace
   structure), and the armed-vs-disarmed identity on all three remoted
   stacks (obs must never perturb virtual time). *)

module Hist = Ava_obs.Hist
module Obs = Ava_obs.Obs
module Json = Ava_obs.Json
module Export = Ava_obs.Export
module Transport = Ava_transport.Transport

open Ava_sim
open Ava_core
open Ava_workloads

(* ------------------------------------------------------- histogram -- *)

let nonneg_sample = QCheck.(map abs (int_bound 2_000_000_000))

(* Negative, tiny, mid-range, power-of-two-edge and overflow samples. *)
let any_sample =
  QCheck.(
    oneof
      [
        int_range (-4) 70;
        nonneg_sample;
        map
          (fun (k, d) -> (1 lsl k) + d)
          (pair (int_range 0 44) (int_range (-1) 1));
      ])

(* The dense 42-slot histogram the compact one replaced, kept as the
   reference its read-outs must match exactly. *)
module Dense = struct
  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable minimum : int;
    mutable maximum : int;
  }

  let bucket_index v =
    let v = Stdlib.max 0 v in
    let rec find i =
      if i >= Hist.n_finite then Hist.n_finite
      else if v <= 1 lsl i then i
      else find (i + 1)
    in
    find 0

  let create () =
    {
      counts = Array.make Hist.n_buckets 0;
      n = 0;
      sum = 0.0;
      minimum = max_int;
      maximum = min_int;
    }

  let add t v =
    let v = Stdlib.max 0 v in
    let i = bucket_index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. float_of_int v;
    if v < t.minimum then t.minimum <- v;
    if v > t.maximum then t.maximum <- v

  let merge ~into src =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
    into.n <- into.n + src.n;
    into.sum <- into.sum +. src.sum;
    if src.n > 0 then begin
      if src.minimum < into.minimum then into.minimum <- src.minimum;
      if src.maximum > into.maximum then into.maximum <- src.maximum
    end

  let quantile t q =
    if t.n = 0 then nan
    else begin
      let target =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.n)))
      in
      let rec walk i cum =
        let cum' = cum + t.counts.(i) in
        if cum' >= target then
          if i = Hist.n_buckets - 1 then float_of_int t.maximum
          else begin
            let lo = if i = 0 then 0.0 else float_of_int (1 lsl (i - 1)) in
            let hi = float_of_int (1 lsl i) in
            let in_bucket = t.counts.(i) in
            let frac =
              if in_bucket = 0 then 1.0
              else float_of_int (target - cum) /. float_of_int in_bucket
            in
            let v = lo +. (frac *. (hi -. lo)) in
            Float.min (Float.max v (float_of_int t.minimum))
              (float_of_int t.maximum)
          end
        else if i = Hist.n_buckets - 1 then float_of_int t.maximum
        else walk (i + 1) cum'
      in
      walk 0 0
    end

  let summary t =
    if t.n = 0 then Hist.empty_summary
    else
      {
        Hist.h_count = t.n;
        h_sum_ns = t.sum;
        h_mean_ns = t.sum /. float_of_int t.n;
        h_min_ns = float_of_int t.minimum;
        h_max_ns = float_of_int t.maximum;
        h_p50_ns = quantile t 0.5;
        h_p95_ns = quantile t 0.95;
        h_p99_ns = quantile t 0.99;
      }
end

let hist_tests =
  [
    Alcotest.test_case "bucket bounds are strictly monotone" `Quick (fun () ->
        for i = 1 to Hist.n_finite - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "bound %d > bound %d" i (i - 1))
            true
            (Hist.bound i > Hist.bound (i - 1))
        done;
        Alcotest.(check int) "first bound" 1 (Hist.bound 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sample lands inside its bucket" ~count:500
         nonneg_sample (fun x ->
           let i = Hist.bucket_index x in
           let below_upper = i >= Hist.n_finite || x <= Hist.bound i in
           let above_lower = i = 0 || x > Hist.bound (i - 1) in
           below_upper && above_lower));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"counts are conserved" ~count:200
         QCheck.(list nonneg_sample)
         (fun xs ->
           let h = Hist.create () in
           List.iter (Hist.add h) xs;
           let bucket_total = Array.fold_left ( + ) 0 (Hist.bucket_counts h) in
           Hist.count h = List.length xs && bucket_total = List.length xs));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sum matches the samples" ~count:200
         QCheck.(list nonneg_sample)
         (fun xs ->
           let h = Hist.create () in
           List.iter (Hist.add h) xs;
           Hist.sum h = float_of_int (List.fold_left ( + ) 0 xs)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"quantiles are monotone and clamped" ~count:200
         QCheck.(pair nonneg_sample (list nonneg_sample))
         (fun (x, xs) ->
           let xs = x :: xs in
           let h = Hist.create () in
           List.iter (Hist.add h) xs;
           let q50 = Hist.quantile h 0.5 in
           let q95 = Hist.quantile h 0.95 in
           let q100 = Hist.quantile h 1.0 in
           let lo = float_of_int (Hist.min_value h) in
           let hi = float_of_int (Hist.max_value h) in
           q50 <= q95 && q95 <= q100 && q50 >= lo && q100 <= hi));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"merge adds counts and sums" ~count:200
         QCheck.(pair (list nonneg_sample) (list nonneg_sample))
         (fun (xs, ys) ->
           let a = Hist.create () and b = Hist.create () in
           List.iter (Hist.add a) xs;
           List.iter (Hist.add b) ys;
           Hist.merge ~into:a b;
           Hist.count a = List.length xs + List.length ys
           && Hist.sum a
              = float_of_int (List.fold_left ( + ) 0 (xs @ ys))));
    Alcotest.test_case "empty histogram quantile is nan" `Quick (fun () ->
        let h = Hist.create () in
        Alcotest.(check bool) "nan" true (Float.is_nan (Hist.quantile h 0.5));
        Alcotest.(check int) "empty summary count" 0
          (Hist.summary h).Hist.h_count);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compact buckets read out like dense ones"
         ~count:300
         QCheck.(triple (list any_sample) (list any_sample) (list any_sample))
         (fun (xs, ys, zs) ->
           let compact xs =
             let h = Hist.create () in
             List.iter (Hist.add h) xs;
             h
           and dense xs =
             let h = Dense.create () in
             List.iter (Dense.add h) xs;
             h
           in
           let same h d =
             Hist.bucket_counts h = Array.copy d.Dense.counts
             && List.for_all
                  (fun q ->
                    let a = Hist.quantile h q and b = Dense.quantile d q in
                    a = b || (Float.is_nan a && Float.is_nan b))
                  [ 0.5; 0.95; 0.99 ]
             && Hist.summary h = Dense.summary d
           in
           let h = compact xs and d = dense xs in
           let ok_single = same h d in
           Hist.merge ~into:h (compact ys);
           Dense.merge ~into:d (dense ys);
           let empty = Hist.create () and dempty = Dense.create () in
           Hist.merge ~into:empty (compact zs);
           Dense.merge ~into:dempty (dense zs);
           Hist.merge ~into:h empty;
           Dense.merge ~into:d dempty;
           ok_single && same h d));
  ]

(* ------------------------------------------------------------ json -- *)

let json_tests =
  [
    Alcotest.test_case "print/parse roundtrip" `Quick (fun () ->
        let doc =
          Json.Obj
            [
              ("s", Json.String "a \"quoted\" \\ line\nwith\ttabs");
              ("i", Json.Int (-42));
              ("f", Json.Float 1.5);
              ("b", Json.Bool true);
              ("n", Json.Null);
              ( "l",
                Json.List [ Json.Int 1; Json.Obj [ ("x", Json.Float 0.25) ] ]
              );
              ("empty_list", Json.List []);
              ("empty_obj", Json.Obj []);
            ]
        in
        Alcotest.(check bool) "compact" true
          (Json.parse (Json.to_string doc) = doc);
        Alcotest.(check bool) "pretty" true
          (Json.parse (Json.to_string_pretty doc) = doc));
    Alcotest.test_case "malformed input is rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (Printf.sprintf "%S rejected" s)
              true
              (Json.parse_opt s = None))
          [ "{"; "[1,]"; "{\"a\":}"; "12 34"; ""; "nul" ]);
    Alcotest.test_case "nan and infinity print as null" `Quick (fun () ->
        Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float nan));
        Alcotest.(check string) "inf" "null"
          (Json.to_string (Json.Float infinity)));
    Alcotest.test_case "accessors" `Quick (fun () ->
        let doc = Json.parse "{\"a\": 1, \"b\": [2.5], \"c\": \"x\"}" in
        Alcotest.(check bool) "member" true
          (Json.member "a" doc = Some (Json.Int 1));
        Alcotest.(check bool) "number" true
          (Option.bind (Json.member "a" doc) Json.to_number = Some 1.0);
        Alcotest.(check bool) "string" true
          (Option.bind (Json.member "c" doc) Json.to_string_opt = Some "x"));
  ]

(* ------------------------------------------------------- exporters -- *)

(* One fully-marked span with easy numbers: every phase duration sits
   in a known bucket, so the exposition is predictable by hand. *)
let golden_registry () =
  let o = Obs.create () in
  let v = Obs.vm o ~vm:1 in
  Obs.vm_span_open v ~seq:7 ~fn:"clLaunchKernel" ~at:100;
  Obs.vm_mark v ~seq:7 Obs.M_marshal_done ~at:150;
  Obs.vm_mark v ~seq:7 Obs.M_sent ~at:160;
  Obs.vm_mark v ~seq:7 Obs.M_router_in ~at:200;
  Obs.vm_mark v ~seq:7 Obs.M_dispatched ~at:230;
  Obs.vm_mark v ~seq:7 Obs.M_exec_start ~at:300;
  Obs.vm_mark v ~seq:7 Obs.M_exec_end ~at:1300;
  Obs.vm_mark v ~seq:7 Obs.M_reply_recv ~at:1400;
  Obs.vm_span_close v ~seq:7 ~status:0 ~at:1450;
  o

let phase_block phase le sum =
  String.concat ""
    [
      Printf.sprintf
        "ava_call_phase_ns_bucket{vm=\"1\",api=\"clLaunchKernel\",phase=\"%s\",le=\"%s\"} 1\n"
        phase le;
      Printf.sprintf
        "ava_call_phase_ns_bucket{vm=\"1\",api=\"clLaunchKernel\",phase=\"%s\",le=\"+Inf\"} 1\n"
        phase;
      Printf.sprintf
        "ava_call_phase_ns_sum{vm=\"1\",api=\"clLaunchKernel\",phase=\"%s\"} %d\n"
        phase sum;
      Printf.sprintf
        "ava_call_phase_ns_count{vm=\"1\",api=\"clLaunchKernel\",phase=\"%s\"} 1\n"
        phase;
    ]

let golden_exposition =
  String.concat ""
    [
      "# HELP ava_call_phase_ns Per-phase latency of forwarded calls, in \
       virtual nanoseconds.\n";
      "# TYPE ava_call_phase_ns histogram\n";
      phase_block "marshal" "64" 50;
      phase_block "stub_queue" "16" 10;
      phase_block "transport" "64" 40;
      phase_block "router_queue" "32" 30;
      phase_block "server_queue" "128" 70;
      phase_block "execute" "1024" 1000;
      phase_block "reply_transport" "128" 100;
      phase_block "unmarshal" "64" 50;
      "# HELP ava_call_total_ns End-to-end latency of forwarded calls, in \
       virtual nanoseconds.\n";
      "# TYPE ava_call_total_ns histogram\n";
      "ava_call_total_ns_bucket{vm=\"1\",api=\"clLaunchKernel\",le=\"2048\"} \
       1\n";
      "ava_call_total_ns_bucket{vm=\"1\",api=\"clLaunchKernel\",le=\"+Inf\"} \
       1\n";
      "ava_call_total_ns_sum{vm=\"1\",api=\"clLaunchKernel\"} 1350\n";
      "ava_call_total_ns_count{vm=\"1\",api=\"clLaunchKernel\"} 1\n";
      "# HELP ava_spans_opened_total Spans opened by the stub.\n";
      "# TYPE ava_spans_opened_total counter\n";
      "ava_spans_opened_total 1\n";
      "# HELP ava_spans_closed_total Spans closed (reply delivered or \
       synthesized).\n";
      "# TYPE ava_spans_closed_total counter\n";
      "ava_spans_closed_total 1\n";
      "# HELP ava_spans_failed_total Spans closed with a non-zero status.\n";
      "# TYPE ava_spans_failed_total counter\n";
      "ava_spans_failed_total 0\n";
      "# HELP ava_spans_in_flight Spans currently open.\n";
      "# TYPE ava_spans_in_flight gauge\n";
      "ava_spans_in_flight 0\n";
    ]

let export_tests =
  [
    Alcotest.test_case "prometheus golden exposition" `Quick (fun () ->
        let o = golden_registry () in
        Alcotest.(check string) "exact text" golden_exposition
          (Export.prometheus o));
    Alcotest.test_case "span slices tile the open..close interval" `Quick
      (fun () ->
        let o = golden_registry () in
        let sp = List.hd (Obs.spans o) in
        let segs = Export.span_segments sp in
        Alcotest.(check int) "eight segments" 8 (List.length segs);
        let last =
          List.fold_left
            (fun expect_start (_, start, stop) ->
              Alcotest.(check int) "contiguous" expect_start start;
              Alcotest.(check bool) "ordered" true (stop >= start);
              stop)
            sp.Obs.sp_open segs
        in
        Alcotest.(check int) "ends at close" sp.Obs.sp_close last);
    Alcotest.test_case "chrome trace is well-formed" `Quick (fun () ->
        let o = golden_registry () in
        let doc = Json.parse (Export.chrome_trace_string o) in
        let events =
          Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list)
        in
        (* 5 metadata events for vm1 (process + 4 lanes) + 8 phase slices. *)
        Alcotest.(check int) "event count" 13 (List.length events);
        let metas, slices =
          List.partition
            (fun e -> Json.member "ph" e = Some (Json.String "M"))
            events
        in
        Alcotest.(check int) "metadata events" 5 (List.length metas);
        List.iter
          (fun e ->
            Alcotest.(check bool) "is complete event" true
              (Json.member "ph" e = Some (Json.String "X"));
            List.iter
              (fun field ->
                Alcotest.(check bool)
                  (field ^ " is numeric")
                  true
                  (Option.bind (Json.member field e) Json.to_number <> None))
              [ "ts"; "dur"; "pid"; "tid" ])
          slices;
        (* The execute slice lands on the server lane with its 1000ns. *)
        let execute =
          List.find
            (fun e -> Json.member "cat" e = Some (Json.String "execute"))
            slices
        in
        Alcotest.(check bool) "server lane" true
          (Json.member "tid" execute = Some (Json.Int 4));
        Alcotest.(check bool) "duration 1us" true
          (Option.bind (Json.member "dur" execute) Json.to_number = Some 1.0));
    Alcotest.test_case "snapshot embeds phases and counters" `Quick (fun () ->
        let o = golden_registry () in
        let doc = Json.parse (Json.to_string (Export.snapshot o)) in
        let phases =
          Option.get (Option.bind (Json.member "phases" doc) Json.to_list)
        in
        Alcotest.(check int) "all eight phases present" 8 (List.length phases);
        let total = Option.get (Json.member "total" doc) in
        Alcotest.(check bool) "total count" true
          (Json.member "count" total = Some (Json.Int 1));
        let spans = Option.get (Json.member "spans" doc) in
        Alcotest.(check bool) "span counters" true
          (Json.member "opened" spans = Some (Json.Int 1)
          && Json.member "closed" spans = Some (Json.Int 1)));
  ]

(* ---------------------------------------- armed == disarmed timing -- *)

let qa_program (module QA : Ava_simqa.Api.S) =
  let ok = function
    | Ok v -> v
    | Error _ -> Alcotest.fail "qa call failed"
  in
  let inst = ok (QA.qaStartInstance ~index:0) in
  let cs = ok (QA.qaCreateSession inst Dir_compress ~level:5) in
  for i = 1 to 4 do
    ignore (ok (QA.qaCompress cs ~src:(Bytes.make (1024 * i) 'z')))
  done

let time_qa ~obs () =
  let e = Engine.create () in
  let finished = ref 0 in
  Engine.spawn e (fun () ->
      let registry = if obs then Some (Obs.create ()) else None in
      let host = Host.create_qa_host ?obs:registry e in
      let guest = Host.add_qa_vm host ~name:"g0" in
      qa_program guest.Host.qg_api;
      finished := Engine.now e);
  Engine.run e;
  !finished

let identity_tests =
  [
    Alcotest.test_case "opencl path: obs does not perturb timing" `Quick
      (fun () ->
        let b = Option.get (Rodinia.find "nn") in
        let plain = Driver.profile_cl b.Rodinia.run in
        let armed = Driver.profile_cl ~obs:true b.Rodinia.run in
        Alcotest.(check int) "bit-identical end time" plain.Driver.pr_ns
          armed.Driver.pr_ns;
        Alcotest.(check int) "same wire bytes" plain.Driver.pr_wire_bytes
          armed.Driver.pr_wire_bytes;
        Alcotest.(check bool) "armed run attributed phases" true
          (armed.Driver.pr_phases <> []));
    Alcotest.test_case "opencl sync-only path too" `Quick (fun () ->
        let b = Option.get (Rodinia.find "nw") in
        let plain = Driver.profile_cl ~sync_only:true b.Rodinia.run in
        let armed = Driver.profile_cl ~sync_only:true ~obs:true b.Rodinia.run in
        Alcotest.(check int) "bit-identical end time" plain.Driver.pr_ns
          armed.Driver.pr_ns;
        Alcotest.(check int) "same wire bytes" plain.Driver.pr_wire_bytes
          armed.Driver.pr_wire_bytes;
        Alcotest.(check bool) "armed run attributed phases" true
          (armed.Driver.pr_phases <> []));
    Alcotest.test_case "mvnc path: obs does not perturb timing" `Quick
      (fun () ->
        let program = Inception.run ~inferences:3 in
        let plain = Driver.profile_nc program in
        let armed = Driver.profile_nc ~obs:true program in
        Alcotest.(check int) "bit-identical end time" plain.Driver.pr_ns
          armed.Driver.pr_ns;
        Alcotest.(check bool) "armed run attributed phases" true
          (armed.Driver.pr_phases <> []));
    Alcotest.test_case "quickassist path: obs does not perturb timing" `Quick
      (fun () ->
        let plain = time_qa ~obs:false () in
        let armed = time_qa ~obs:true () in
        Alcotest.(check bool) "workload ran" true (plain > 0);
        Alcotest.(check int) "bit-identical end time" plain armed);
    Alcotest.test_case "phase durations tile the end-to-end total" `Quick
      (fun () ->
        let b = Option.get (Rodinia.find "gaussian") in
        let p = Driver.profile_cl ~obs:true b.Rodinia.run in
        let total = Option.get p.Driver.pr_call_latency in
        let phase_sum =
          List.fold_left
            (fun acc (_, s) -> acc +. s.Hist.h_sum_ns)
            0.0 p.Driver.pr_phases
        in
        Alcotest.(check (float 0.0)) "sum(phases) = total"
          total.Hist.h_sum_ns phase_sum;
        let phase_count =
          List.fold_left
            (fun acc (_, s) -> max acc s.Hist.h_count)
            0 p.Driver.pr_phases
        in
        Alcotest.(check int) "every call attributed" total.Hist.h_count
          phase_count);
  ]

(* ----------------------------------------------------------- spans -- *)

let lifecycle o ~vm ~seq =
  let at = seq * 1_000 and v = Obs.vm o ~vm in
  Obs.vm_span_open v ~seq ~fn:"clEnqueueNDRangeKernel" ~at;
  List.iteri
    (fun i m -> Obs.vm_mark v ~seq m ~at:(at + (10 * (i + 1))))
    [
      Obs.M_marshal_done;
      Obs.M_sent;
      Obs.M_doorbell;
      Obs.M_router_in;
      Obs.M_dispatched;
      Obs.M_exec_start;
      Obs.M_exec_end;
      Obs.M_reply_recv;
    ];
  Obs.vm_set_device v ~seq ~device:1;
  Obs.vm_span_close v ~seq ~status:0 ~at:(at + 900)

(* Span [seq]'s retained marks, by mark index. *)
let retained_marks o ~seq =
  match List.find_opt (fun sp -> sp.Obs.sp_seq = seq) (Obs.spans o) with
  | Some sp -> Array.to_list sp.Obs.sp_marks
  | None -> Alcotest.failf "span %d not retained" seq

let span_tests =
  [
    Alcotest.test_case "warmed span lifecycle allocates at most 256 B" `Quick
      (fun () ->
        let o = Obs.create () in
        for seq = 0 to 999 do
          lifecycle o ~vm:3 ~seq
        done;
        (* Minor words only: they are exact at any instant.  The
           ring's chunks are allocated straight in the major heap, 15
           words per retained span. *)
        let n = 10_000 in
        let before = Gc.minor_words () in
        for seq = 1_000 to 1_000 + n - 1 do
          lifecycle o ~vm:3 ~seq
        done;
        let bytes =
          (Gc.minor_words () -. before)
          *. float_of_int (Sys.word_size / 8)
          /. float_of_int n
        in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f B per lifecycle" bytes)
          true (bytes <= 256.0);
        Alcotest.(check int) "all closed" (n + 1_000) (Obs.spans_closed o));
    Alcotest.test_case "colliding seqs grow the table and keep both spans"
      `Quick (fun () ->
        let o = Obs.create () in
        let v = Obs.vm o ~vm:1 in
        (* 0 and 4096 share a slot in any table of up to 4096 slots. *)
        Obs.vm_span_open v ~seq:0 ~fn:"clFinish" ~at:0;
        Obs.vm_mark v ~seq:0 Obs.M_sent ~at:10;
        Obs.vm_span_open v ~seq:4096 ~fn:"clFinish" ~at:5;
        Obs.vm_mark v ~seq:4096 Obs.M_sent ~at:15;
        Obs.vm_mark v ~seq:0 Obs.M_exec_end ~at:30;
        Obs.vm_mark v ~seq:4096 Obs.M_exec_end ~at:35;
        Alcotest.(check int) "both live" 2 (Obs.vm_in_flight o ~vm:1);
        Obs.vm_span_close v ~seq:0 ~status:0 ~at:40;
        Obs.vm_span_close v ~seq:4096 ~status:0 ~at:45;
        let marks sent exec_end =
          List.init 8 (fun i ->
              if i = Obs.mark_index Obs.M_sent then sent
              else if i = Obs.mark_index Obs.M_exec_end then exec_end
              else -1)
        in
        Alcotest.(check (list int)) "seq 0" (marks 10 30) (retained_marks o ~seq:0);
        Alcotest.(check (list int))
          "seq 4096" (marks 15 35) (retained_marks o ~seq:4096);
        Alcotest.(check int) "none live" 0 (Obs.in_flight o));
    Alcotest.test_case "first write wins across growth" `Quick (fun () ->
        let o = Obs.create () in
        let v = Obs.vm o ~vm:1 in
        Obs.vm_span_open v ~seq:3 ~fn:"clFinish" ~at:0;
        Obs.vm_mark v ~seq:3 Obs.M_sent ~at:10;
        Obs.vm_set_device v ~seq:3 ~device:2;
        Obs.vm_span_open v ~seq:(3 + 4096) ~fn:"clFinish" ~at:0;
        Obs.vm_mark v ~seq:3 Obs.M_sent ~at:20;
        Obs.vm_set_device v ~seq:3 ~device:5;
        Obs.vm_span_open v ~seq:3 ~fn:"clFlush" ~at:99;
        Obs.vm_span_close v ~seq:3 ~status:0 ~at:50;
        Alcotest.(check int)
          "sent" 10
          (List.nth (retained_marks o ~seq:3) (Obs.mark_index Obs.M_sent));
        let sp = List.hd (Obs.spans o) in
        Alcotest.(check int) "device" 2 sp.Obs.sp_device;
        Alcotest.(check int) "open" 0 sp.Obs.sp_open;
        Alcotest.(check string) "fn" "clFinish" sp.Obs.sp_fn);
    Alcotest.test_case "forget_vm and vm_in_flight across growth" `Quick
      (fun () ->
        let o = Obs.create () in
        let v = Obs.vm o ~vm:1 in
        List.iter
          (fun seq -> Obs.vm_span_open v ~seq ~fn:"clFinish" ~at:0)
          [ 0; 4096; 5; 8192 ];
        Obs.vm_span_open (Obs.vm o ~vm:2) ~seq:0 ~fn:"clFinish" ~at:0;
        Alcotest.(check int) "vm 1 live" 4 (Obs.vm_in_flight o ~vm:1);
        Alcotest.(check int) "gauge" 5 (Obs.in_flight o);
        Obs.vm_span_close v ~seq:4096 ~status:0 ~at:1;
        Alcotest.(check int) "one closed" 3 (Obs.vm_in_flight o ~vm:1);
        Obs.forget_vm o ~vm:1;
        Alcotest.(check int) "vm 1 drained" 0 (Obs.vm_in_flight o ~vm:1);
        Alcotest.(check int) "vm 2 kept" 1 (Obs.in_flight o);
        Obs.vm_span_close v ~seq:5 ~status:0 ~at:2;
        Alcotest.(check int) "forgotten span stays closed" 1 (Obs.spans_closed o);
        Obs.vm_span_open v ~seq:5 ~fn:"clFinish" ~at:3;
        Alcotest.(check int) "handle usable after forget" 1
          (Obs.vm_in_flight o ~vm:1));
    Alcotest.test_case "a warmed mark allocates nothing" `Quick (fun () ->
        let o = Obs.create () in
        let v = Obs.vm o ~vm:1 in
        for seq = 0 to 63 do
          Obs.vm_span_open v ~seq ~fn:"clFinish" ~at:0
        done;
        let mark_all at =
          for seq = 0 to 63 do
            Obs.vm_mark v ~seq Obs.M_sent ~at;
            Obs.vm_mark v ~seq:(seq + 64) Obs.M_sent ~at
          done
        in
        mark_all 1;
        (* Two reads back to back: what reading the counter itself
           allocates. *)
        let r0 = Gc.minor_words () in
        let r1 = Gc.minor_words () in
        mark_all 2;
        let r2 = Gc.minor_words () in
        Alcotest.(check (float 0.0)) "words" (r1 -. r0) (r2 -. r1));
    Alcotest.test_case "forget_vm drops only that vm's open spans" `Quick
      (fun () ->
        let o = Obs.create () in
        lifecycle o ~vm:1 ~seq:0;
        let v1 = Obs.vm o ~vm:1 in
        Obs.vm_span_open v1 ~seq:1 ~fn:"clReleaseMemObject" ~at:5_000;
        Obs.vm_span_open (Obs.vm o ~vm:2) ~seq:0 ~fn:"clReleaseMemObject"
          ~at:5_000;
        Obs.forget_vm o ~vm:1;
        Alcotest.(check int) "vm 1 drained" 0 (Obs.vm_in_flight o ~vm:1);
        Alcotest.(check int) "vm 2 untouched" 1 (Obs.vm_in_flight o ~vm:2);
        Alcotest.(check int) "gauge" 1 (Obs.in_flight o);
        Obs.vm_span_close v1 ~seq:1 ~status:0 ~at:6_000;
        Alcotest.(check int) "late close is a no-op" 1 (Obs.spans_closed o);
        Alcotest.(check (list int))
          "closed history kept" [ 1 ]
          (List.map fst (Obs.vm_totals o)));
    Alcotest.test_case "listings hold only keys with samples" `Quick
      (fun () ->
        let o = Obs.create () in
        let v1 = Obs.vm o ~vm:1 in
        Obs.vm_span_open v1 ~seq:0 ~fn:"clFinish" ~at:0;
        Obs.vm_span_close v1 ~seq:0 ~status:0 ~at:40;
        Obs.vm_span_open v1 ~seq:1 ~fn:"clReleaseEvent" ~at:50;
        Obs.vm_span_open (Obs.vm o ~vm:2) ~seq:0 ~fn:"clReleaseEvent" ~at:50;
        Alcotest.(check int) "one total" 1 (List.length (Obs.totals o));
        Alcotest.(check int) "one raw total" 1 (List.length (Obs.raw_totals o));
        Alcotest.(check int) "one vm" 1 (List.length (Obs.vm_totals o));
        Alcotest.(check bool)
          "one series: the unmarshal tail" true
          (List.map fst (Obs.series o) = [ (1, "clFinish", Obs.P_unmarshal) ]);
        Alcotest.(check bool)
          "raw series agrees" true
          (List.map fst (Obs.raw_series o) = List.map fst (Obs.series o)));
    Alcotest.test_case "ring keeps the newest spans, oldest first" `Quick
      (fun () ->
        let o = Obs.create ~retain:600 () in
        for seq = 0 to 1_499 do
          lifecycle o ~vm:1 ~seq
        done;
        let spans = Obs.spans o in
        Alcotest.(check int) "retained" 600 (List.length spans);
        Alcotest.(check int) "dropped" 900 (Obs.retain_dropped o);
        Alcotest.(check (list int))
          "seqs" (List.init 600 (fun i -> 900 + i))
          (List.map (fun sp -> sp.Obs.sp_seq) spans);
        let sp = List.hd spans in
        Alcotest.(check int) "close" ((900 * 1_000) + 900) sp.Obs.sp_close;
        Alcotest.(check int) "device" 1 sp.Obs.sp_device;
        Alcotest.(check int)
          "last mark" ((900 * 1_000) + 80)
          sp.Obs.sp_marks.(Obs.mark_index Obs.M_reply_recv);
        Alcotest.(check int)
          "retain 0 keeps none" 0
          (let o = Obs.create ~retain:0 () in
           lifecycle o ~vm:1 ~seq:0;
           List.length (Obs.spans o)));
  ]

let () =
  Alcotest.run "ava_obs"
    [
      ("hist", hist_tests);
      ("json", json_tests);
      ("export", export_tests);
      ("identity", identity_tests);
      ("spans", span_tests);
    ]
