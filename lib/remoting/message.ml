(* Call and reply frames exchanged between guest library, router and API
   server. *)

type call = {
  call_seq : int;
  call_vm : int;
  call_fn : string;
  call_args : Wire.value list;
}

type reply = {
  reply_seq : int;
  reply_status : int;  (** 0 = success; otherwise an API error code *)
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

type t =
  | Call of call
  | Reply of reply
  | Batch of call list
  | Upcall of upcall
  | Skip of skip
  | Nak of nak

let call_values c =
  Wire.Str "C" :: Wire.int c.call_seq :: Wire.int c.call_vm
  :: Wire.Str c.call_fn :: c.call_args

let encode = function
  | Call c -> Wire.encode (call_values c)
  | Reply r ->
      Wire.encode
        (Wire.Str "R" :: Wire.int r.reply_seq :: Wire.int r.reply_status
       :: r.reply_ret :: r.reply_outs)
  | Batch calls ->
      (* rCUDA-style API batching: several asynchronously forwarded calls
         in one transport message, each a [Call] frame inside a [Blob]. *)
      Wire.encode_nested [ Wire.Str "G" ] (List.map call_values calls)
  | Upcall u ->
      (* Server-to-guest callback invocation. *)
      Wire.encode
        (Wire.Str "U" :: Wire.int u.up_vm :: Wire.int u.up_cb :: u.up_args)
  | Skip s ->
      Wire.encode
        (Wire.Str "S" :: Wire.int s.skip_vm
        :: List.map Wire.int s.skip_seqs)
  | Nak n ->
      Wire.encode
        (Wire.Str "N" :: Wire.int n.nak_vm :: Wire.int n.nak_seq
        :: List.map (fun d -> Wire.I64 d) n.nak_digests)

let batch_of_frames frames =
  Wire.encode (Wire.Str "G" :: List.map (fun f -> Wire.Blob f) frames)

(* --- decoding ------------------------------------------------------------ *)

let malformed what = raise (Wire.Decode_error ("malformed " ^ what ^ " frame"))

let read_i64 r what =
  match Wire.read_value ~copy:false r with
  | Wire.I64 v -> v
  | _ -> malformed what

(* [List.init] applies its closure in an unspecified order; each read
   advances the reader, so read strictly left to right. *)
let rec read_n read n acc =
  if n = 0 then List.rev acc else read_n read (n - 1) (read () :: acc)

let at_least n k what = if n < k then malformed what

(* The one frame parser behind [decode] and [peek]; [copy] only decides
   whether payloads are copied out.  Batch members are parsed in place
   (never copied into a blob first) and come back with their sub-frame
   spans.  A member must be a [Call] frame, so batches never nest.  Seqs,
   vm ids, statuses and callback ids are read with [Wire.read_int]: a
   forged out-of-range value is an error, never wrapped into one that
   aliases a live call. *)
let rec parse ~copy ~member data ~off ~len =
  let r = Wire.reader data ~off ~len in
  let n = Wire.read_count r in
  at_least n 1 "message";
  let kind =
    match Wire.read_value ~copy:false r with
    | Wire.Str k -> k
    | _ -> malformed "message"
  in
  let msg, spans =
    match kind with
    | "C" ->
        at_least n 4 "call";
        let call_seq = Wire.read_int r in
        let call_vm = Wire.read_int r in
        let call_fn =
          match Wire.read_value ~copy:false r with
          | Wire.Str fn -> fn
          | _ -> malformed "call"
        in
        let call_args = Wire.read_values ~copy r (n - 4) in
        (Call { call_seq; call_vm; call_fn; call_args }, [])
    | _ when member -> raise (Wire.Decode_error "batch frame is not a call")
    | "R" ->
        at_least n 4 "reply";
        let reply_seq = Wire.read_int r in
        let reply_status = Wire.read_int r in
        let reply_ret = Wire.read_value ~copy r in
        let reply_outs = Wire.read_values ~copy r (n - 4) in
        (Reply { reply_seq; reply_status; reply_ret; reply_outs }, [])
    | "G" ->
        let members =
          read_n
            (fun () ->
              let off, len = Wire.read_blob_span r in
              match parse ~copy ~member:true data ~off ~len with
              | Call c, _ -> (c, (off, len))
              | _ -> malformed "batch")
            (n - 1) []
        in
        (Batch (List.map fst members), List.map snd members)
    | "U" ->
        at_least n 3 "upcall";
        let up_vm = Wire.read_int r in
        let up_cb = Wire.read_int r in
        let up_args = Wire.read_values ~copy r (n - 3) in
        (Upcall { up_vm; up_cb; up_args }, [])
    | "S" ->
        at_least n 2 "skip";
        let skip_vm = Wire.read_int r in
        let skip_seqs = read_n (fun () -> Wire.read_int r) (n - 2) [] in
        (Skip { skip_vm; skip_seqs }, [])
    | "N" ->
        at_least n 3 "nak";
        let nak_vm = Wire.read_int r in
        let nak_seq = Wire.read_int r in
        let nak_digests = read_n (fun () -> read_i64 r "nak") (n - 3) [] in
        (Nak { nak_vm; nak_seq; nak_digests }, [])
    | _ -> malformed "message"
  in
  Wire.read_end r;
  (msg, spans)

let parse_all ~copy data =
  match parse ~copy ~member:false data ~off:0 ~len:(Bytes.length data) with
  | parsed -> Ok parsed
  | exception Wire.Decode_error msg -> Error msg

let decode data =
  match parse_all ~copy:true data with
  | Ok (msg, _) -> Ok msg
  | Error _ as e -> e

let peek data = parse_all ~copy:false data

let pp ppf = function
  | Call c ->
      Fmt.pf ppf "call#%d vm%d %s(%a)" c.call_seq c.call_vm c.call_fn
        (Fmt.list ~sep:Fmt.comma Wire.pp)
        c.call_args
  | Reply r ->
      Fmt.pf ppf "reply#%d status=%d ret=%a" r.reply_seq r.reply_status
        Wire.pp r.reply_ret
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
