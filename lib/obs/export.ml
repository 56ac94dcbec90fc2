(* Exporters over the {!Obs} registry: Prometheus text exposition,
   Chrome trace-event JSON (chrome://tracing / Perfetto), and a
   machine-readable JSON snapshot embedded into BENCH_*.json.  All
   three are deterministic for a given registry state. *)

(* {1 Prometheus text exposition} *)

(* One histogram family member: cumulative le buckets (only buckets
   that grow the cumulative count, plus +Inf — scrapers do not require
   a fixed le schedule), then _sum and _count. *)
let hist_lines_labeled name ~labels:base h =
  let label_str extra =
    match extra with
    | Some le -> Printf.sprintf "{%s,le=\"%s\"}" base le
    | None -> Printf.sprintf "{%s}" base
  in
  let b = Buffer.create 256 in
  let counts = Hist.bucket_counts h in
  let cum = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        cum := !cum + c;
        let le =
          if i < Hist.n_finite then string_of_int (Hist.bound i) else "+Inf"
        in
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" name (label_str (Some le)) !cum)
      end)
    counts;
  Buffer.add_string b
    (Printf.sprintf "%s_bucket%s %d\n" name (label_str (Some "+Inf")) !cum);
  Buffer.add_string b
    (Printf.sprintf "%s_sum%s %.0f\n" name (label_str None) (Hist.sum h));
  Buffer.add_string b
    (Printf.sprintf "%s_count%s %d\n" name (label_str None) (Hist.count h));
  Buffer.contents b

let hist_lines name ~vm ~api ~phase h =
  hist_lines_labeled name
    ~labels:
      (Printf.sprintf "vm=\"%d\",api=\"%s\"%s" vm api
         (match phase with
         | Some p -> Printf.sprintf ",phase=\"%s\"" (Obs.phase_name p)
         | None -> ""))
    h

(* Per-device execute-phase histograms, rebuilt from retained spans'
   execute segments.  Empty when no span carries a device stamp (the
   pool-less NC and QA hosts), so their exposition is unchanged. *)
let device_exec_hists t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (sp : Obs.span) ->
      if sp.Obs.sp_device >= 0 then begin
        let s = sp.Obs.sp_marks.(Obs.mark_index Obs.M_exec_start) in
        let e = sp.Obs.sp_marks.(Obs.mark_index Obs.M_exec_end) in
        if s >= 0 && e >= s then begin
          let h =
            match Hashtbl.find_opt tbl sp.Obs.sp_device with
            | Some h -> h
            | None ->
                let h = Hist.create () in
                Hashtbl.replace tbl sp.Obs.sp_device h;
                h
          in
          Hist.add h (e - s)
        end
      end)
    (Obs.spans t);
  Hashtbl.fold (fun d h acc -> (d, h) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Stdlib.compare (a : int) b)

let prometheus t =
  let b = Buffer.create 4096 in
  let header name typ help =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ)
  in
  header "ava_call_phase_ns" "histogram"
    "Per-phase latency of forwarded calls, in virtual nanoseconds.";
  List.iter
    (fun ((vm, api, phase), h) ->
      Buffer.add_string b
        (hist_lines "ava_call_phase_ns" ~vm ~api ~phase:(Some phase) h))
    (Obs.raw_series t);
  header "ava_call_total_ns" "histogram"
    "End-to-end latency of forwarded calls, in virtual nanoseconds.";
  List.iter
    (fun ((vm, api), h) ->
      Buffer.add_string b
        (hist_lines "ava_call_total_ns" ~vm ~api ~phase:None h))
    (Obs.raw_totals t);
  (match device_exec_hists t with
  | [] -> ()
  | per_dev ->
      header "ava_device_exec_ns" "histogram"
        "Execute-phase latency per pool device, in virtual nanoseconds.";
      List.iter
        (fun (dev, h) ->
          Buffer.add_string b
            (hist_lines_labeled "ava_device_exec_ns"
               ~labels:(Printf.sprintf "device=\"%d\"" dev)
               h))
        per_dev);
  header "ava_spans_opened_total" "counter" "Spans opened by the stub.";
  Buffer.add_string b
    (Printf.sprintf "ava_spans_opened_total %d\n" (Obs.spans_opened t));
  header "ava_spans_closed_total" "counter"
    "Spans closed (reply delivered or synthesized).";
  Buffer.add_string b
    (Printf.sprintf "ava_spans_closed_total %d\n" (Obs.spans_closed t));
  header "ava_spans_failed_total" "counter"
    "Spans closed with a non-zero status.";
  Buffer.add_string b
    (Printf.sprintf "ava_spans_failed_total %d\n" (Obs.spans_failed t));
  header "ava_spans_in_flight" "gauge" "Spans currently open.";
  Buffer.add_string b
    (Printf.sprintf "ava_spans_in_flight %d\n" (Obs.in_flight t));
  Buffer.contents b

(* {1 Chrome trace-event JSON} *)

(* Lanes (tid) inside each VM's "process": guest-side work, the wire,
   the router and the server each get their own track so the phase
   hand-offs read left-to-right in Perfetto. *)
let lane_of_phase = function
  | Obs.P_marshal | Obs.P_stub_queue | Obs.P_doorbell | Obs.P_unmarshal ->
      1 (* guest *)
  | Obs.P_transport | Obs.P_reply_transport -> 2 (* wire *)
  | Obs.P_router_queue -> 3 (* router *)
  | Obs.P_server_queue | Obs.P_execute -> 4 (* server *)

let lane_name = function
  | 1 -> "guest"
  | 2 -> "wire"
  | 3 -> "router"
  | _ -> "server"

(* Server-side segments of a device-stamped span (CL and ST hosts) get
   their own lane per device so migrations read as a track switch;
   unstamped spans keep the legacy shared server lane (tid 4). *)
let device_lane d = 10 + d

let span_lane (sp : Obs.span) phase =
  let lane = lane_of_phase phase in
  if lane = 4 && sp.Obs.sp_device >= 0 then device_lane sp.Obs.sp_device
  else lane

let us_of_ns ns = float_of_int ns /. 1000.0

(* Reconstruct the (phase, start, stop) segments of one closed span:
   same slicing as [Obs.record_phases]. *)
let span_segments (sp : Obs.span) =
  let segs = ref [] in
  let last = ref sp.Obs.sp_open in
  List.iter
    (fun m ->
      let ts = sp.Obs.sp_marks.(Obs.mark_index m) in
      if ts >= 0 then begin
        segs := (Obs.mark_phase m, !last, ts) :: !segs;
        last := ts
      end)
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
  if sp.Obs.sp_close >= 0 then
    segs := (Obs.P_unmarshal, !last, sp.Obs.sp_close) :: !segs;
  List.rev !segs

let chrome_trace t =
  let spans = Obs.spans t in
  let vms =
    List.sort_uniq Stdlib.compare (List.map (fun sp -> sp.Obs.sp_vm) spans)
  in
  let meta =
    List.concat_map
      (fun vm ->
        let devices =
          List.filter_map
            (fun sp ->
              if sp.Obs.sp_vm = vm && sp.Obs.sp_device >= 0 then
                Some sp.Obs.sp_device
              else None)
            spans
          |> List.sort_uniq Stdlib.compare
        in
        let thread_meta tid name =
          Json.Obj
            [
              ("name", Json.String "thread_name");
              ("ph", Json.String "M");
              ("pid", Json.Int vm);
              ("tid", Json.Int tid);
              ("args", Json.Obj [ ("name", Json.String name) ]);
            ]
        in
        (Json.Obj
           [
             ("name", Json.String "process_name");
             ("ph", Json.String "M");
             ("pid", Json.Int vm);
             ("tid", Json.Int 0);
             ( "args",
               Json.Obj
                 [ ("name", Json.String (Printf.sprintf "vm%d" vm)) ] );
           ]
        :: List.map (fun lane -> thread_meta lane (lane_name lane)) [ 1; 2; 3; 4 ]
        )
        @ List.map
            (fun d ->
              thread_meta (device_lane d) (Printf.sprintf "server-dev%d" d))
            devices)
      vms
  in
  let events =
    List.concat_map
      (fun sp ->
        List.map
          (fun (phase, start, stop) ->
            Json.Obj
              [
                ( "name",
                  Json.String
                    (Printf.sprintf "%s:%s" sp.Obs.sp_fn
                       (Obs.phase_name phase)) );
                ("cat", Json.String (Obs.phase_name phase));
                ("ph", Json.String "X");
                ("ts", Json.Float (us_of_ns start));
                ("dur", Json.Float (us_of_ns (stop - start)));
                ("pid", Json.Int sp.Obs.sp_vm);
                ("tid", Json.Int (span_lane sp phase));
                ( "args",
                  Json.Obj
                    [
                      ("seq", Json.Int sp.Obs.sp_seq);
                      ("status", Json.Int sp.Obs.sp_status);
                    ] );
              ])
          (span_segments sp))
      spans
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ events));
      ("displayTimeUnit", Json.String "ns");
    ]

let chrome_trace_string t = Json.to_string (chrome_trace t)

(* {1 JSON snapshot} *)

let json_of_summary (s : Hist.summary) =
  Json.Obj
    [
      ("count", Json.Int s.Hist.h_count);
      ("sum_ns", Json.Float s.Hist.h_sum_ns);
      ("mean_ns", Json.Float s.Hist.h_mean_ns);
      ("min_ns", Json.Float s.Hist.h_min_ns);
      ("max_ns", Json.Float s.Hist.h_max_ns);
      ("p50_ns", Json.Float s.Hist.h_p50_ns);
      ("p95_ns", Json.Float s.Hist.h_p95_ns);
      ("p99_ns", Json.Float s.Hist.h_p99_ns);
    ]

(* Merged per-phase breakdown — the piece bench JSON embeds. *)
let phases_json t =
  Json.List
    (List.map
       (fun (name, s) ->
         Json.Obj
           (("phase", Json.String name)
           :: (match json_of_summary s with
              | Json.Obj fields -> fields
              | _ -> [])))
       (Obs.phase_summaries t))

let snapshot t =
  Json.Obj
    [
      ( "spans",
        Json.Obj
          [
            ("opened", Json.Int (Obs.spans_opened t));
            ("closed", Json.Int (Obs.spans_closed t));
            ("failed", Json.Int (Obs.spans_failed t));
            ("in_flight", Json.Int (Obs.in_flight t));
            ("retain_dropped", Json.Int (Obs.retain_dropped t));
          ] );
      ("total", json_of_summary (Obs.total_summary t));
      ("phases", phases_json t);
      ( "series",
        Json.List
          (List.map
             (fun ((vm, api, phase), s) ->
               Json.Obj
                 (("vm", Json.Int vm)
                 :: ("api", Json.String api)
                 :: ("phase", Json.String (Obs.phase_name phase))
                 :: (match json_of_summary s with
                    | Json.Obj fields -> fields
                    | _ -> [])))
             (Obs.series t)) );
    ]
