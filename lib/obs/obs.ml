(* Per-call latency attribution for the remoting path.

   Each forwarded call opens a span keyed by (vm, seq) and looks up its
   (vm, api) row of histograms.  The stub, router and server each hold
   the VM's handle and stamp marks on the span, straight into the VM's
   span slots, as the call moves through the stack; closing the span
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

(* A live span's fields besides its seq and marks.  Each slot of a
   VM's span table owns one, created on the slot's first use and reused
   by every span that lands there after. *)
type live = {
  mutable l_fn : string;
  mutable l_row : row;
  mutable l_open : Time.t;
  mutable l_device : int;
}

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = x
end)

(* Retained closed spans as a flat ring: the k-th closed span goes to
   slot [k mod retain] as [stride] ints plus its API name.  Slots live
   in chunks of [chunk_slots], allocated when the ring first reaches
   them, so a registry pays only for the spans it has retained;
   {!spans} builds the records only when read. *)
let stride = 6 + n_marks (* vm, seq, open, close, status, device, marks *)
let chunk_slots = 512

type t = {
  vms : vm Itbl.t;
  retain : int;
  ring : int array array; (* chunks; [||] until first reached *)
  ring_fn : string array array;
  mutable retained : int; (* spans ever retained *)
  mutable live_n : int;
  mutable opened : int;
  mutable closed : int;
  mutable failed : int; (* closed with status <> 0 *)
}

(* A VM's live spans sit in flat slots: the span for [seq] is at slot
   [seq land (cap - 1)], its marks at [n_marks] ints from
   [slot * n_marks].  Seqs are issued consecutively, so the calls in
   flight land in distinct slots; a seq whose slot is taken doubles the
   table until it is not.  A mark is then an index and a compare. *)
and vm = {
  v_id : int;
  v_reg : t;
  v_rows : (string, row) Hashtbl.t; (* by API name *)
  mutable v_seqs : int array; (* the slot's live seq, or [no_seq] *)
  mutable v_stamps : Time.t array; (* [n_marks] per slot; -1 = unset *)
  mutable v_spans : live array;
  mutable v_n : int; (* live spans *)
}

let no_seq = min_int
let initial_slots = 16

(* Stands for a slot's record before its first use. *)
let unused =
  { l_fn = ""; l_row = { r_phases = [||]; r_total = Hist.create () };
    l_open = 0; l_device = -1 }

let default_retain = 65536

let create ?(retain = default_retain) () =
  let retain = Stdlib.max 0 retain in
  let chunks = (retain + chunk_slots - 1) / chunk_slots in
  {
    vms = Itbl.create 64;
    retain;
    ring = Array.make chunks [||];
    ring_fn = Array.make chunks [||];
    retained = 0;
    live_n = 0;
    opened = 0;
    closed = 0;
    failed = 0;
  }

(* {1 Gauges} *)

let in_flight t = t.live_n

let vm_in_flight t ~vm =
  match Itbl.find t.vms vm with v -> v.v_n | exception Not_found -> 0

let spans_opened t = t.opened
let spans_closed t = t.closed
let spans_failed t = t.failed
let retain_dropped t = Stdlib.max 0 (t.retained - t.retain)

(* {1 Span lifecycle} *)

let vm t ~vm =
  match Itbl.find t.vms vm with
  | v -> v
  | exception Not_found ->
      let v =
        {
          v_id = vm;
          v_reg = t;
          v_rows = Hashtbl.create 8;
          v_seqs = Array.make initial_slots no_seq;
          v_stamps = Array.make (initial_slots * n_marks) (-1);
          v_spans = Array.make initial_slots unused;
          v_n = 0;
        }
      in
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

(* The slot of live span [seq], or -1. *)
let[@inline] slot_of v seq =
  let i = seq land (Array.length v.v_seqs - 1) in
  if v.v_seqs.(i) = seq then i else -1

(* Double the table, moving each live span (its seq, marks and record)
   to its slot in the new one.  Live seqs distinct modulo the old size
   stay distinct modulo the new. *)
let grow v =
  let cap = Array.length v.v_seqs in
  let seqs = Array.make (2 * cap) no_seq
  and stamps = Array.make (2 * cap * n_marks) (-1)
  and spans = Array.make (2 * cap) unused in
  for i = 0 to cap - 1 do
    let seq = v.v_seqs.(i) in
    if seq <> no_seq then begin
      let j = seq land ((2 * cap) - 1) in
      seqs.(j) <- seq;
      Array.blit v.v_stamps (i * n_marks) stamps (j * n_marks) n_marks;
      spans.(j) <- v.v_spans.(i)
    end
  done;
  v.v_seqs <- seqs;
  v.v_stamps <- stamps;
  v.v_spans <- spans

let rec free_slot v seq =
  let i = seq land (Array.length v.v_seqs - 1) in
  if v.v_seqs.(i) = no_seq then i
  else begin
    grow v;
    free_slot v seq
  end

let vm_span_open v ~seq ~fn ~at =
  if slot_of v seq < 0 then begin
    let i = free_slot v seq and row = row_for v fn in
    let l = v.v_spans.(i) in
    if l == unused then
      v.v_spans.(i) <- { l_fn = fn; l_row = row; l_open = at; l_device = -1 }
    else begin
      l.l_fn <- fn;
      l.l_row <- row;
      l.l_open <- at;
      l.l_device <- -1
    end;
    v.v_seqs.(i) <- seq;
    Array.fill v.v_stamps (i * n_marks) n_marks (-1);
    v.v_n <- v.v_n + 1;
    let t = v.v_reg in
    t.live_n <- t.live_n + 1;
    t.opened <- t.opened + 1
  end

(* First write wins: a resent call must not rewrite the marks of the
   attempt already in flight, or phase durations could go negative. *)
let vm_mark v ~seq m ~at =
  let i = slot_of v seq in
  if i >= 0 then begin
    let k = (i * n_marks) + mark_index m in
    if v.v_stamps.(k) < 0 then v.v_stamps.(k) <- at
  end

(* First write wins, like marks: a duplicate execution after a
   re-steer must not reattribute the span's original device. *)
let vm_set_device v ~seq ~device =
  let i = slot_of v seq in
  if i >= 0 then begin
    let l = v.v_spans.(i) in
    if l.l_device < 0 then l.l_device <- device
  end

(* Slice [l_open .. close] at the stamped marks of slot [i].  Mark [m]
   ends phase [m]; [last] carries the end of the previous present
   phase, so absent marks contribute their time to the next phase that
   was actually stamped. *)
let record_phases ~tail v i l close =
  let phases = l.l_row.r_phases in
  let last = ref l.l_open in
  for m = 0 to n_marks - 1 do
    let ts = v.v_stamps.((i * n_marks) + m) in
    if ts >= 0 then begin
      Hist.add phases.(m) (ts - !last);
      last := ts
    end
  done;
  if tail then Hist.add phases.(n_marks) (close - !last);
  Hist.add l.l_row.r_total (close - l.l_open)

let retain_span t v i l ~status ~close =
  let slot = t.retained mod t.retain in
  let c = slot / chunk_slots and off = slot mod chunk_slots in
  if Array.length t.ring_fn.(c) = 0 then begin
    let n = Stdlib.min chunk_slots (t.retain - (c * chunk_slots)) in
    t.ring.(c) <- Array.make (n * stride) 0;
    t.ring_fn.(c) <- Array.make n ""
  end;
  t.retained <- t.retained + 1;
  let r = t.ring.(c) and base = off * stride in
  r.(base) <- v.v_id;
  r.(base + 1) <- v.v_seqs.(i);
  r.(base + 2) <- l.l_open;
  r.(base + 3) <- close;
  r.(base + 4) <- status;
  r.(base + 5) <- l.l_device;
  Array.blit v.v_stamps (i * n_marks) r (base + 6) n_marks;
  t.ring_fn.(c).(off) <- l.l_fn

let close_slot ~tail v i ~status ~at =
  let t = v.v_reg and l = v.v_spans.(i) in
  t.live_n <- t.live_n - 1;
  t.closed <- t.closed + 1;
  if status <> 0 then t.failed <- t.failed + 1;
  record_phases ~tail v i l at;
  if t.retain > 0 then retain_span t v i l ~status ~close:at;
  v.v_seqs.(i) <- no_seq;
  v.v_n <- v.v_n - 1

let vm_span_close v ~seq ~status ~at =
  let i = slot_of v seq in
  if i >= 0 then close_slot ~tail:true v i ~status ~at

(* An acknowledged call ends at its execution end: no reply travels
   back, so no reply or unmarshal phase is recorded. *)
let vm_span_ack v ~seq ~at =
  let i = slot_of v seq in
  if i >= 0 then
    let ex = v.v_stamps.((i * n_marks) + mark_index M_exec_end) in
    if ex >= 0 then close_slot ~tail:false v i ~status:0 ~at:ex
    else close_slot ~tail:true v i ~status:0 ~at

(* A retired VM's open spans will never close: drop them (its closed
   spans and histograms stay). *)
let forget_vm t ~vm =
  match Itbl.find t.vms vm with
  | exception Not_found -> ()
  | v ->
      Array.fill v.v_seqs 0 (Array.length v.v_seqs) no_seq;
      t.live_n <- t.live_n - v.v_n;
      v.v_n <- 0

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

(* Merged across VMs and APIs: one named summary per phase with
   samples, in pipeline order — the shape the bench JSON and the report
   table want. *)
let phase_summaries t =
  let merged = Array.init n_phases (fun _ -> Hist.create ()) in
  iter_rows t (fun r ->
      Array.iteri (fun i h -> Hist.merge ~into:merged.(i) h) r.r_phases);
  List.mapi (fun i p -> (phase_name p, Hist.summary merged.(i))) phases
  |> List.filter (fun (_, s) -> s.Hist.h_count > 0)

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
