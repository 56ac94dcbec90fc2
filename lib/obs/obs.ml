(* Per-call latency attribution for the remoting path.

   Each forwarded call opens a span keyed by (vm, seq) and looks up its
   (vm, api) row of histograms.  The stub, router and server stamp marks
   on the span as the call moves through the stack; closing the span
   slices the open->close interval into phases and feeds the row's
   per-phase log-bucketed histograms, then copies the span into a flat
   ring of retained spans.  The
   registry never advances virtual time — arming it cannot perturb the
   simulation, so armed and disarmed runs are bit-identical in timing
   by construction. *)

open Ava_sim

type phase =
  | P_marshal (* guest-side argument marshalling *)
  | P_stub_queue (* waiting in the stub batch / hold queue *)
  | P_doorbell (* waiting for the coalesced doorbell to ring *)
  | P_transport (* guest -> router hop *)
  | P_router_queue (* router policing + WFQ wait *)
  | P_server_queue (* router -> server hop + dispatch overhead *)
  | P_execute (* device execution under the handler *)
  | P_reply_transport (* server -> guest reply hop *)
  | P_unmarshal (* guest-side reply decode + wakeup *)

let phases =
  [
    P_marshal;
    P_stub_queue;
    P_doorbell;
    P_transport;
    P_router_queue;
    P_server_queue;
    P_execute;
    P_reply_transport;
    P_unmarshal;
  ]

let phase_name = function
  | P_marshal -> "marshal"
  | P_stub_queue -> "stub_queue"
  | P_doorbell -> "doorbell"
  | P_transport -> "transport"
  | P_router_queue -> "router_queue"
  | P_server_queue -> "server_queue"
  | P_execute -> "execute"
  | P_reply_transport -> "reply_transport"
  | P_unmarshal -> "unmarshal"

(* Marks are the phase boundaries stamped by the stack.  Each mark ends
   the phase listed next to it; the close timestamp ends [P_unmarshal].
   A missing mark (call rejected before dispatch, reply synthesized by
   the watchdog, direct transport with no router...) simply folds its
   phase into the next one that was stamped. *)
type mark =
  | M_marshal_done (* ends P_marshal *)
  | M_sent (* ends P_stub_queue *)
  | M_doorbell (* ends P_doorbell *)
  | M_router_in (* ends P_transport *)
  | M_dispatched (* ends P_router_queue *)
  | M_exec_start (* ends P_server_queue *)
  | M_exec_end (* ends P_execute *)
  | M_reply_recv (* ends P_reply_transport *)

let n_marks = 8
let mark_index = function
  | M_marshal_done -> 0
  | M_sent -> 1
  | M_doorbell -> 2
  | M_router_in -> 3
  | M_dispatched -> 4
  | M_exec_start -> 5
  | M_exec_end -> 6
  | M_reply_recv -> 7

let mark_phase = function
  | M_marshal_done -> P_marshal
  | M_sent -> P_stub_queue
  | M_doorbell -> P_doorbell
  | M_router_in -> P_transport
  | M_dispatched -> P_router_queue
  | M_exec_start -> P_server_queue
  | M_exec_end -> P_execute
  | M_reply_recv -> P_reply_transport

type span = {
  sp_vm : int;
  sp_seq : int;
  sp_fn : string;
  sp_open : Time.t;
  sp_marks : Time.t array; (* indexed by [mark_index]; -1 = unset *)
  mutable sp_close : Time.t; (* -1 while open *)
  mutable sp_status : int;
  mutable sp_device : int; (* pool device that executed it; -1 = unknown *)
}

(* Per-(vm, fn) aggregation: the nine phase histograms, in pipeline
   order, and the end-to-end total.  A span looks its row up once, at
   open. *)
type row = { r_phases : Hist.t array; r_total : Hist.t }

let n_phases = n_marks + 1
let phase_table = Array.of_list phases

(* A live span.  Closed and forgotten records go back to a free list,
   so a warmed registry opens spans without allocating them. *)
type live = {
  mutable l_seq : int;
  mutable l_fn : string;
  mutable l_row : row;
  mutable l_open : Time.t;
  l_marks : Time.t array; (* indexed by [mark_index]; -1 = unset *)
  mutable l_device : int;
}

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x
end)

type vm_state = {
  v_rows : (string, row) Hashtbl.t; (* by API name *)
  v_live : live Itbl.t; (* by seq *)
}

(* Retained closed spans as a flat ring: the k-th closed span goes to
   slot [k mod retain] as [stride] ints plus its API name.  Slots live
   in chunks of [chunk_slots], allocated when the ring first reaches
   them, so a registry pays only for the spans it has retained;
   {!spans} builds the records only when read. *)
let stride = 6 + n_marks (* vm, seq, open, close, status, device, marks *)
let chunk_slots = 512

type t = {
  vms : vm_state Itbl.t;
  counters : (string, int ref) Hashtbl.t;
  retain : int;
  ring : int array array; (* chunks; [||] until first reached *)
  ring_fn : string array array;
  mutable retained : int; (* spans ever retained *)
  mutable free : live array;
  mutable n_free : int;
  mutable live_n : int;
  mutable opened : int;
  mutable closed : int;
  mutable failed : int; (* closed with status <> 0 *)
}

let default_retain = 65536

let create ?(retain = default_retain) () =
  let retain = Stdlib.max 0 retain in
  let chunks = (retain + chunk_slots - 1) / chunk_slots in
  {
    vms = Itbl.create 64;
    counters = Hashtbl.create 32;
    retain;
    ring = Array.make chunks [||];
    ring_fn = Array.make chunks [||];
    retained = 0;
    free = [||];
    n_free = 0;
    live_n = 0;
    opened = 0;
    closed = 0;
    failed = 0;
  }

(* {1 Counters and gauges} *)

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let in_flight t = t.live_n

let vm_in_flight t ~vm =
  match Itbl.find t.vms vm with
  | v -> Itbl.length v.v_live
  | exception Not_found -> 0

let spans_opened t = t.opened
let spans_closed t = t.closed
let spans_failed t = t.failed
let retain_dropped t = Stdlib.max 0 (t.retained - t.retain)

(* {1 Span lifecycle} *)

let vm_state t vm =
  match Itbl.find t.vms vm with
  | v -> v
  | exception Not_found ->
      let v = { v_rows = Hashtbl.create 8; v_live = Itbl.create 8 } in
      Itbl.add t.vms vm v;
      v

let row_for v fn =
  match Hashtbl.find v.v_rows fn with
  | r -> r
  | exception Not_found ->
      let r =
        {
          r_phases = Array.init n_phases (fun _ -> Hist.create ());
          r_total = Hist.create ();
        }
      in
      Hashtbl.add v.v_rows fn r;
      r

let release t l =
  if t.n_free = Array.length t.free then begin
    let free = Array.make (Stdlib.max 16 (2 * t.n_free)) l in
    Array.blit t.free 0 free 0 t.n_free;
    t.free <- free
  end;
  t.free.(t.n_free) <- l;
  t.n_free <- t.n_free + 1

let span_open t ~vm ~seq ~fn ~at =
  let v = vm_state t vm in
  if not (Itbl.mem v.v_live seq) then begin
    let row = row_for v fn in
    let l =
      if t.n_free = 0 then
        {
          l_seq = seq;
          l_fn = fn;
          l_row = row;
          l_open = at;
          l_marks = Array.make n_marks 0;
          l_device = 0;
        }
      else begin
        t.n_free <- t.n_free - 1;
        t.free.(t.n_free)
      end
    in
    l.l_seq <- seq;
    l.l_fn <- fn;
    l.l_row <- row;
    l.l_open <- at;
    Array.fill l.l_marks 0 n_marks (-1);
    l.l_device <- -1;
    Itbl.add v.v_live seq l;
    t.live_n <- t.live_n + 1;
    t.opened <- t.opened + 1
  end

(* The live span for [(vm, seq)]; raises [Not_found]. *)
let find_live t ~vm ~seq = Itbl.find (Itbl.find t.vms vm).v_live seq

(* First write wins: a resent call must not rewrite the marks of the
   attempt already in flight, or phase durations could go negative. *)
let mark t ~vm ~seq m ~at =
  match find_live t ~vm ~seq with
  | exception Not_found -> ()
  | l ->
      let i = mark_index m in
      if l.l_marks.(i) < 0 then l.l_marks.(i) <- at

(* First write wins, like marks: a duplicate execution after a
   re-steer must not reattribute the span's original device. *)
let set_device t ~vm ~seq ~device =
  match find_live t ~vm ~seq with
  | exception Not_found -> ()
  | l -> if l.l_device < 0 then l.l_device <- device

(* Slice [l_open .. close] at the stamped marks.  Mark [i] ends phase
   [i]; [last] carries the end of the previous present phase, so absent
   marks contribute their time to the next phase that was actually
   stamped. *)
let record_phases l close =
  let phases = l.l_row.r_phases in
  let last = ref l.l_open in
  for i = 0 to n_marks - 1 do
    let ts = l.l_marks.(i) in
    if ts >= 0 then begin
      Hist.add phases.(i) (ts - !last);
      last := ts
    end
  done;
  Hist.add phases.(n_marks) (close - !last);
  Hist.add l.l_row.r_total (close - l.l_open)

let retain_span t ~vm l ~status ~close =
  let slot = t.retained mod t.retain in
  let c = slot / chunk_slots and off = slot mod chunk_slots in
  if Array.length t.ring_fn.(c) = 0 then begin
    let n = Stdlib.min chunk_slots (t.retain - (c * chunk_slots)) in
    t.ring.(c) <- Array.make (n * stride) 0;
    t.ring_fn.(c) <- Array.make n ""
  end;
  t.retained <- t.retained + 1;
  let r = t.ring.(c) and base = off * stride in
  r.(base) <- vm;
  r.(base + 1) <- l.l_seq;
  r.(base + 2) <- l.l_open;
  r.(base + 3) <- close;
  r.(base + 4) <- status;
  r.(base + 5) <- l.l_device;
  Array.blit l.l_marks 0 r (base + 6) n_marks;
  t.ring_fn.(c).(off) <- l.l_fn

let span_close t ~vm ~seq ~status ~at =
  match Itbl.find t.vms vm with
  | exception Not_found -> ()
  | v -> (
      match Itbl.find v.v_live seq with
      | exception Not_found -> ()
      | l ->
          Itbl.remove v.v_live seq;
          t.live_n <- t.live_n - 1;
          t.closed <- t.closed + 1;
          if status <> 0 then t.failed <- t.failed + 1;
          record_phases l at;
          if t.retain > 0 then retain_span t ~vm l ~status ~close:at;
          release t l)

(* A retired VM's open spans will never close: drop them (its closed
   spans and histograms stay). *)
let forget_vm t ~vm =
  match Itbl.find t.vms vm with
  | exception Not_found -> ()
  | v ->
      Itbl.iter (fun _ l -> release t l) v.v_live;
      t.live_n <- t.live_n - Itbl.length v.v_live;
      Itbl.reset v.v_live

(* {1 Read-out} *)

let spans t =
  let len = Stdlib.min t.retained t.retain in
  List.init len (fun i ->
      let slot = (t.retained - len + i) mod t.retain in
      let c = slot / chunk_slots and off = slot mod chunk_slots in
      let r = t.ring.(c) and base = off * stride in
      {
        sp_vm = r.(base);
        sp_seq = r.(base + 1);
        sp_fn = t.ring_fn.(c).(off);
        sp_open = r.(base + 2);
        sp_marks = Array.sub r (base + 6) n_marks;
        sp_close = r.(base + 3);
        sp_status = r.(base + 4);
        sp_device = r.(base + 5);
      })

(* Rows sorted by (vm, fn): the deterministic order of every listing. *)
let sorted_rows t =
  Itbl.fold
    (fun vm v acc ->
      Hashtbl.fold (fun fn r acc -> ((vm, fn), r) :: acc) v.v_rows acc)
    t.vms []
  |> List.sort (fun ((v1, f1), _) ((v2, f2), _) ->
         match Int.compare v1 v2 with 0 -> String.compare f1 f2 | c -> c)

(* Only histograms with samples are listed: rows are created at open,
   so a span that never closed leaves empty ones behind. *)
let raw_series t =
  List.concat_map
    (fun ((vm, fn), r) ->
      List.filter_map
        (fun i ->
          let h = r.r_phases.(i) in
          if Hist.count h = 0 then None
          else Some ((vm, fn, phase_table.(i)), h))
        (List.init n_phases Fun.id))
    (sorted_rows t)

let series t = List.map (fun (k, h) -> (k, Hist.summary h)) (raw_series t)

let raw_totals t =
  List.filter_map
    (fun (k, r) ->
      if Hist.count r.r_total = 0 then None else Some (k, r.r_total))
    (sorted_rows t)

let totals t = List.map (fun (k, h) -> (k, Hist.summary h)) (raw_totals t)

let iter_rows t f =
  Itbl.iter (fun _ v -> Hashtbl.iter (fun _ r -> f r) v.v_rows) t.vms

(* Merged across VMs and APIs: one summary per phase, in pipeline
   order — the shape the bench JSON and the report table want. *)
let phase_summaries t =
  let merged = Array.init n_phases (fun _ -> Hist.create ()) in
  iter_rows t (fun r ->
      Array.iteri (fun i h -> Hist.merge ~into:merged.(i) h) r.r_phases);
  List.mapi (fun i p -> (p, Hist.summary merged.(i))) phases

let total_summary t =
  let merged = Hist.create () in
  iter_rows t (fun r -> Hist.merge ~into:merged r.r_total);
  Hist.summary merged

(* Per-VM end-to-end summaries, merged across APIs: the per-tenant
   latency read-out the cluster tier reports p50/p99 from. *)
let vm_totals t =
  Itbl.fold
    (fun vm v acc ->
      let merged = Hist.create () in
      Hashtbl.iter (fun _ r -> Hist.merge ~into:merged r.r_total) v.v_rows;
      if Hist.count merged = 0 then acc else (vm, Hist.summary merged) :: acc)
    t.vms []
  |> List.sort (fun (v1, _) (v2, _) -> Int.compare v1 v2)
