(* Call and reply frames exchanged between guest library, router and API
   server. *)

module Plan = Ava_codegen.Plan

type call = {
  call_seq : int;
  call_vm : int;
  call_fn : string;
  call_args : Wire.value list;
}

type reply = {
  reply_seq : int;
  reply_status : int;  (** 0 = success; otherwise an API error code *)
  reply_mark : int;
  reply_failed : (int * int) list;
  reply_ret : Wire.value;
  reply_outs : Wire.value list;
}

type upcall = { up_vm : int; up_cb : int; up_args : Wire.value list }

type skip = { skip_vm : int; skip_seqs : int list }
(** Router-to-server notice that the named seqs were policed away and
    will never arrive, so in-order execution can advance past them. *)

type nak = { nak_vm : int; nak_seq : int; nak_digests : int64 list }
(** Server-to-guest cache-miss notice: the named [Blob_ref] digests were
    not in the content store, so the stub must re-send the full payload
    under the same seq. *)

type ack = { ack_vm : int; ack_mark : int; ack_failed : (int * int) list }
(** Server-to-guest acknowledgement: every seq below [ack_mark] has
    executed, and of those at most [failure_span] below it, exactly the
    ones in the [ack_failed] runs failed; a run [(lo, hi)] holds the
    seqs [lo] to [hi - 1]. *)

let failure_span = 1024

type t =
  | Call of call
  | Reply of reply
  | Batch of call list
  | Upcall of upcall
  | Skip of skip
  | Nak of nak
  | Ack of ack

(* --- encoding ------------------------------------------------------------ *)

(* Call and Reply frames are the per-call traffic: their headers (kind,
   seq, vm or status, fn or return value) are written straight into the
   frame's first segment, with no value list built around the
   arguments.  The bytes are exactly [Wire.encode] of that list. *)

let kind_size = 6 (* a one-character [Str] *)
let int_size = 9

let call_frame ~cut ~copy c =
  let head = 4 + kind_size + (2 * int_size) + 5 + String.length c.call_fn in
  let segs = Wire.frame ~cut ~copy ~head c.call_args in
  let b = segs.(0) in
  let pos = Wire.write_count b 0 (4 + List.length c.call_args) in
  let pos = Wire.write_str b pos "C" in
  let pos = Wire.write_int b pos c.call_seq in
  let pos = Wire.write_int b pos c.call_vm in
  ignore (Wire.write_str b pos c.call_fn);
  segs

let rec write_runs b pos = function
  | [] -> pos
  | (lo, hi) :: runs -> write_runs b (Wire.write_int b (Wire.write_int b pos lo) hi) runs

let run_values runs = List.concat_map (fun (lo, hi) -> [ Wire.int lo; Wire.int hi ]) runs

(* The return value goes in the header unless it has a payload to cut,
   which no handler returns.  The mark, the count of failed runs named
   and their bounds precede it. *)
let reply_frame ~cut ~copy r =
  let in_head = not (cut && Wire.cuts r.reply_ret > 0) in
  let failed = List.length r.reply_failed in
  let head = 4 + kind_size + ((4 + (2 * failed)) * int_size) in
  let segs =
    if in_head then
      Wire.frame ~cut ~copy ~head:(head + Wire.encoded_size r.reply_ret) r.reply_outs
    else Wire.frame ~cut ~copy ~head (r.reply_ret :: r.reply_outs)
  in
  let b = segs.(0) in
  let pos = Wire.write_count b 0 (6 + (2 * failed) + List.length r.reply_outs) in
  let pos = Wire.write_str b pos "R" in
  let pos = Wire.write_int b pos r.reply_seq in
  let pos = Wire.write_int b pos r.reply_status in
  let pos = Wire.write_int b pos r.reply_mark in
  let pos = write_runs b (Wire.write_int b pos failed) r.reply_failed in
  if in_head then ignore (Wire.write_value b pos r.reply_ret);
  segs

(* rCUDA-style API batching: several asynchronously forwarded calls in
   one transport message, each a [Call] frame inside a [Blob].  The stub
   batches frames it has already encoded, so the batch header and each
   member's blob header are written around copies of their segments.  A
   batch is flat: one segment. *)
let batch_of_frames frames =
  let size =
    List.fold_left
      (fun acc f -> acc + 5 + Ava_transport.Transport.length f)
      (4 + kind_size) frames
  in
  let b = Bytes.create size in
  let pos = Wire.write_count b 0 (1 + List.length frames) in
  let pos = Wire.write_str b pos "G" in
  ignore
    (List.fold_left
       (fun pos f ->
         Array.fold_left
           (fun pos seg ->
             let n = Bytes.length seg in
             Bytes.blit seg 0 b pos n;
             pos + n)
           (Wire.write_blob_header b pos (Ava_transport.Transport.length f))
           f)
       pos frames);
  [| b |]

let frame ~cut ~copy = function
  | Call c -> call_frame ~cut ~copy c
  | Reply r -> reply_frame ~cut ~copy r
  | Batch calls ->
      batch_of_frames (List.map (call_frame ~cut:false ~copy:false) calls)
  | Upcall u ->
      (* Server-to-guest callback invocation. *)
      [| Wire.encode
           (Wire.Str "U" :: Wire.int u.up_vm :: Wire.int u.up_cb :: u.up_args) |]
  | Skip s ->
      [| Wire.encode
           (Wire.Str "S" :: Wire.int s.skip_vm :: List.map Wire.int s.skip_seqs) |]
  | Nak n ->
      [| Wire.encode
           (Wire.Str "N" :: Wire.int n.nak_vm :: Wire.int n.nak_seq
           :: List.map (fun d -> Wire.I64 d) n.nak_digests) |]
  | Ack a ->
      [| Wire.encode
           (Wire.Str "A" :: Wire.int a.ack_vm :: Wire.int a.ack_mark
           :: run_values a.ack_failed) |]

let iovec ~copy m = frame ~cut:true ~copy m
let encode m = (frame ~cut:false ~copy:false m).(0)

(* --- decoding ------------------------------------------------------------ *)

(* Seqs, vm ids, statuses and callback ids are read with [Wire.read_int]:
   a forged out-of-range value is an error, never wrapped into one that
   aliases a live call.  [decode] and the cursor below share these
   header readers and [Wire]'s per-value checks, so they accept exactly
   the same frames. *)

let malformed what = raise (Wire.Decode_error ("malformed " ^ what ^ " frame"))
let at_least (n : int) k what = if n < k then malformed what

(* The frame's value count and kind tag; the kind's own minimum count is
   checked by [check_arity]. *)
let read_head r =
  let n = Wire.read_count r in
  at_least n 1 "message";
  n

(* A batch is one segment, so its members are in line. *)
let check_arity segs n = function
  | 'C' -> at_least n 4 "call"
  | 'R' -> at_least n 6 "reply"
  | 'U' -> at_least n 3 "upcall"
  | 'S' -> at_least n 2 "skip"
  | 'N' -> at_least n 3 "nak"
  | 'A' -> if n < 3 || (n - 3) land 1 <> 0 then malformed "ack"
  | 'G' -> if Array.length segs <> 1 then malformed "batch"
  | _ -> malformed "message"

(* A reply's count of failed runs, within the values its frame holds. *)
let read_failed_count r n =
  let k = Wire.read_int r in
  if k < 0 || k > (n - 6) / 2 then malformed "reply";
  k

let not_a_call () = raise (Wire.Decode_error "batch frame is not a call")

let[@tail_mod_cons] rec read_ints r n =
  if n = 0 then []
  else
    let s = Wire.read_int r in
    s :: read_ints r (n - 1)

let[@tail_mod_cons] rec read_runs r n =
  if n = 0 then []
  else
    let lo = Wire.read_int r in
    let hi = Wire.read_int r in
    (lo, hi) :: read_runs r (n - 1)

let[@tail_mod_cons] rec read_i64s r n =
  if n = 0 then []
  else
    let d = Wire.read_i64 r in
    d :: read_i64s r (n - 1)

(* One receiver's readers: the frame's, and one its batch members are
   parsed with, in place, never copied into a blob first. *)
type decoder = { d_frame : Wire.reader; d_member : Wire.reader }

let decoder ~share = { d_frame = Wire.reader ~share; d_member = Wire.reader ~share }

let read_call r n =
  let call_seq = Wire.read_int r in
  let call_vm = Wire.read_int r in
  let call_fn = Wire.read_name r in
  let call_args = Wire.read_values r (n - 4) in
  { call_seq; call_vm; call_fn; call_args }

(* A member must be a [Call] frame, so batches never nest. *)
let parse_member r =
  let n = read_head r in
  if Wire.read_kind r <> 'C' then not_a_call ();
  at_least n 4 "call";
  let c = read_call r n in
  Wire.read_end r;
  c

let[@tail_mod_cons] rec read_members d data r n =
  if n = 0 then []
  else
    let len = Wire.read_blob r in
    Wire.reset_range d.d_member data ~off:(Wire.value_off r) ~len;
    let c = parse_member d.d_member in
    c :: read_members d data r (n - 1)

let parse d segs =
  let r = d.d_frame in
  Wire.reset r segs;
  let n = read_head r in
  let kind = Wire.read_kind r in
  check_arity segs n kind;
  let msg =
    match kind with
    | 'C' -> Call (read_call r n)
    | 'R' ->
        let reply_seq = Wire.read_int r in
        let reply_status = Wire.read_int r in
        let reply_mark = Wire.read_int r in
        let k = read_failed_count r n in
        let reply_failed = read_runs r k in
        let reply_ret = Wire.read_value r in
        let reply_outs = Wire.read_values r (n - 6 - (2 * k)) in
        Reply
          { reply_seq; reply_status; reply_mark; reply_failed; reply_ret; reply_outs }
    | 'G' -> Batch (read_members d segs.(0) r (n - 1))
    | 'U' ->
        let up_vm = Wire.read_int r in
        let up_cb = Wire.read_int r in
        let up_args = Wire.read_values r (n - 3) in
        Upcall { up_vm; up_cb; up_args }
    | 'S' ->
        let skip_vm = Wire.read_int r in
        Skip { skip_vm; skip_seqs = read_ints r (n - 2) }
    | 'A' ->
        let ack_vm = Wire.read_int r in
        let ack_mark = Wire.read_int r in
        Ack { ack_vm; ack_mark; ack_failed = read_runs r ((n - 3) / 2) }
    | _ ->
        let nak_vm = Wire.read_int r in
        let nak_seq = Wire.read_int r in
        Nak { nak_vm; nak_seq; nak_digests = read_i64s r (n - 3) }
  in
  Wire.read_end r;
  msg

let read_message d segs =
  let result =
    match parse d segs with
    | msg -> Ok msg
    | exception Wire.Decode_error msg -> Error msg
  in
  Wire.release d.d_frame;
  Wire.release d.d_member;
  result

let decode data = read_message (decoder ~share:false) [| data |]

(* --- frame cursor -------------------------------------------------------- *)

type kind = K_call | K_reply | K_batch | K_upcall | K_skip | K_nak | K_ack

(* One reusable reader per direction; per-member columns grow to the
   largest batch seen and are then reused, so a read allocates nothing
   but names no plan declared and error messages. *)
type cursor = {
  cu_frame : Wire.reader;
  cu_member : Wire.reader;
  mutable cu_members : int;
  mutable cu_seq : int array;
  mutable cu_vm : int array;
  mutable cu_fn : string array;
  mutable cu_arity : int array;
  mutable cu_off : int array;
  mutable cu_len : int array;
  mutable cu_scalars : Plan.scalars array;
  mutable cu_status : int;
  mutable cu_mark : int;
}

let cursor () =
  {
    cu_frame = Wire.reader ~share:false;
    cu_member = Wire.reader ~share:false;
    cu_members = 0;
    cu_seq = [||];
    cu_vm = [||];
    cu_fn = [||];
    cu_arity = [||];
    cu_off = [||];
    cu_len = [||];
    cu_scalars = [||];
    cu_status = 0;
    cu_mark = 0;
  }

let ensure_members cu n =
  let cap = Array.length cu.cu_seq in
  if n > cap then begin
    let cap' = Stdlib.max n (2 * cap) in
    let grow a fill = Array.append a (Array.make (cap' - cap) fill) in
    cu.cu_seq <- grow cu.cu_seq 0;
    cu.cu_vm <- grow cu.cu_vm 0;
    cu.cu_fn <- grow cu.cu_fn "";
    cu.cu_arity <- grow cu.cu_arity 0;
    cu.cu_off <- grow cu.cu_off 0;
    cu.cu_len <- grow cu.cu_len 0;
    cu.cu_scalars <-
      Array.append cu.cu_scalars (Array.init (cap' - cap) (fun _ -> Plan.scalars ()))
  end

(* The rest of a Call frame after its kind: header fields into member
   [i]'s columns, each argument checked and stepped over, int-valued
   ones bound in the member's scalar view. *)
let scan_call cu i r n =
  cu.cu_seq.(i) <- Wire.read_int r;
  cu.cu_vm.(i) <- Wire.read_int r;
  cu.cu_fn.(i) <- Wire.read_name r;
  cu.cu_arity.(i) <- n - 4;
  let sv = cu.cu_scalars.(i) in
  Plan.clear_scalars sv;
  for j = 0 to n - 5 do
    if Wire.scan_value r then Plan.bind_scalar sv j (Wire.scanned_int r)
  done

let skip_values r n =
  for _ = 1 to n do
    ignore (Wire.scan_value r)
  done

let scan_member cu i data ~off ~len =
  let r = cu.cu_member in
  Wire.reset_range r data ~off ~len;
  let n = read_head r in
  if Wire.read_kind r <> 'C' then not_a_call ();
  at_least n 4 "call";
  scan_call cu i r n;
  Wire.read_end r;
  cu.cu_off.(i) <- off;
  cu.cu_len.(i) <- len

(* Every check [parse] makes, in the same order, building nothing. *)
let scan_frame cu segs =
  let r = cu.cu_frame in
  Wire.reset r segs;
  cu.cu_members <- 0;
  let n = read_head r in
  let kind = Wire.read_kind r in
  check_arity segs n kind;
  let k =
    match kind with
    | 'C' ->
        ensure_members cu 1;
        scan_call cu 0 r n;
        cu.cu_off.(0) <- 0;
        cu.cu_len.(0) <- Ava_transport.Transport.length segs;
        cu.cu_members <- 1;
        K_call
    | 'R' ->
        ensure_members cu 1;
        cu.cu_seq.(0) <- Wire.read_int r;
        cu.cu_status <- Wire.read_int r;
        cu.cu_mark <- Wire.read_int r;
        let k = read_failed_count r n in
        for _ = 1 to 2 * k do
          ignore (Wire.read_int r)
        done;
        skip_values r (n - 5 - (2 * k));
        K_reply
    | 'G' ->
        (* Columns grow member by member, as members validate: a forged
           count cannot make the cursor reserve room it never fills. *)
        for i = 0 to n - 2 do
          ensure_members cu (i + 1);
          let len = Wire.read_blob r in
          scan_member cu i segs.(0) ~off:(Wire.value_off r) ~len
        done;
        cu.cu_members <- n - 1;
        K_batch
    | 'U' ->
        ignore (Wire.read_int r);
        ignore (Wire.read_int r);
        skip_values r (n - 3);
        K_upcall
    | 'S' ->
        for _ = 1 to n - 1 do
          ignore (Wire.read_int r)
        done;
        K_skip
    | 'A' ->
        ignore (Wire.read_int r);
        cu.cu_mark <- Wire.read_int r;
        for _ = 1 to n - 3 do
          ignore (Wire.read_int r)
        done;
        K_ack
    | _ ->
        ignore (Wire.read_int r);
        ignore (Wire.read_int r);
        for _ = 1 to n - 3 do
          ignore (Wire.read_i64 r)
        done;
        K_nak
  in
  Wire.read_end r;
  k

let read cu segs =
  let result =
    match scan_frame cu segs with
    | K_call -> Ok K_call
    | K_reply -> Ok K_reply
    | K_batch -> Ok K_batch
    | K_upcall -> Ok K_upcall
    | K_skip -> Ok K_skip
    | K_nak -> Ok K_nak
    | K_ack -> Ok K_ack
    | exception Wire.Decode_error msg ->
        cu.cu_members <- 0;
        Error msg
  in
  Wire.release cu.cu_frame;
  Wire.release cu.cu_member;
  result

let members cu = cu.cu_members
let seq cu i = cu.cu_seq.(i)
let vm cu i = cu.cu_vm.(i)
let fn cu i = cu.cu_fn.(i)
let arity cu i = cu.cu_arity.(i)
let scalars cu i = cu.cu_scalars.(i)
let member_off cu i = cu.cu_off.(i)
let member_len cu i = cu.cu_len.(i)
let reply_seq cu = cu.cu_seq.(0)
let reply_status cu = cu.cu_status
let mark cu = cu.cu_mark

let pp_runs =
  Fmt.list ~sep:Fmt.comma (fun ppf (lo, hi) -> Fmt.pf ppf "%d..%d" lo (hi - 1))

let pp ppf = function
  | Call c ->
      Fmt.pf ppf "call#%d vm%d %s(%a)" c.call_seq c.call_vm c.call_fn
        (Fmt.list ~sep:Fmt.comma Wire.pp)
        c.call_args
  | Reply r ->
      Fmt.pf ppf "reply#%d status=%d mark=%d failed=[%a] ret=%a" r.reply_seq
        r.reply_status r.reply_mark pp_runs r.reply_failed Wire.pp r.reply_ret
  | Batch calls -> Fmt.pf ppf "batch of %d calls" (List.length calls)
  | Upcall u -> Fmt.pf ppf "upcall vm%d cb#%d" u.up_vm u.up_cb
  | Skip s ->
      Fmt.pf ppf "skip vm%d seqs=[%a]" s.skip_vm
        (Fmt.list ~sep:Fmt.comma Fmt.int)
        s.skip_seqs
  | Nak n ->
      Fmt.pf ppf "nak vm%d seq#%d digests=[%a]" n.nak_vm n.nak_seq
        (Fmt.list ~sep:Fmt.comma (fun ppf d -> Fmt.pf ppf "%Lx" d))
        n.nak_digests
  | Ack a ->
      Fmt.pf ppf "ack vm%d mark=%d failed=[%a]" a.ack_vm a.ack_mark pp_runs
        a.ack_failed
