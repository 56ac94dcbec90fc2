(* Wire values: the dynamic representation every forwarded API call is
   marshalled into.

   Handles are guest-assigned integers (the API server maintains the
   guest-id -> host-object mapping), so values survive any transport and
   any server restart during migration. *)

type value =
  | Unit
  | I64 of int64
  | F64 of float
  | Str of string
  | Blob of bytes
  | Handle of int64
  | List of value list
  | Blob_ref of { br_digest : int64; br_size : int }
  | Blob_cached of { bc_digest : int64; bc_data : bytes }
  | Mapped_ref of { mr_iova : int64; mr_size : int }
      (** SVA buffer reference: the payload stays in guest pages pinned
          into the device IOVA window; only (iova, size) crosses the
          wire.  Decode rejects references outside the window. *)

let int n = I64 (Int64.of_int n)

(* Out-of-range values must surface as [None], not wrap: a 64-bit handle
   truncated to a native int would silently alias another object. *)
let min_int64 = Int64.of_int min_int
let max_int64 = Int64.of_int max_int

let fits_int v =
  Int64.compare v min_int64 >= 0 && Int64.compare v max_int64 <= 0

let to_int = function
  | (I64 v | Handle v) when fits_int v -> Some (Int64.to_int v)
  | _ -> None

(* Content address of a buffer payload: the stack's one 64-bit hash
   (XXH64), shared with the fault envelope's checksum. *)
let digest = Ava_transport.Hash64.bytes

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | I64 x, I64 y -> Int64.equal x y
  | F64 x, F64 y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Blob x, Blob y -> Bytes.equal x y
  | Handle x, Handle y -> Int64.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Blob_ref x, Blob_ref y ->
      Int64.equal x.br_digest y.br_digest && x.br_size = y.br_size
  | Blob_cached x, Blob_cached y ->
      Int64.equal x.bc_digest y.bc_digest && Bytes.equal x.bc_data y.bc_data
  | Mapped_ref x, Mapped_ref y ->
      Int64.equal x.mr_iova y.mr_iova && x.mr_size = y.mr_size
  | ( ( Unit | I64 _ | F64 _ | Str _ | Blob _ | Handle _ | List _ | Blob_ref _
      | Blob_cached _ | Mapped_ref _ ),
      _ ) ->
      false

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | I64 v -> Fmt.pf ppf "%Ld" v
  | F64 v -> Fmt.pf ppf "%g" v
  | Str s -> Fmt.pf ppf "%S" s
  | Blob b -> Fmt.pf ppf "<blob %d>" (Bytes.length b)
  | Handle h -> Fmt.pf ppf "#%Ld" h
  | List vs -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:Fmt.comma pp) vs
  | Blob_ref { br_digest; br_size } ->
      Fmt.pf ppf "<ref %Lx %d>" br_digest br_size
  | Blob_cached { bc_digest; bc_data } ->
      Fmt.pf ppf "<cached %Lx %d>" bc_digest (Bytes.length bc_data)
  | Mapped_ref { mr_iova; mr_size } -> Fmt.pf ppf "<iova %Lx %d>" mr_iova mr_size

(* Size of the encoded form, used for payload accounting. *)
let rec encoded_size = function
  | Unit -> 1
  | I64 _ | F64 _ | Handle _ -> 9
  | Str s -> 5 + String.length s
  | Blob b -> 5 + Bytes.length b
  | List vs -> 5 + List.fold_left (fun acc v -> acc + encoded_size v) 0 vs
  | Blob_ref _ -> 13
  | Blob_cached { bc_data; _ } -> 13 + Bytes.length bc_data
  | Mapped_ref _ -> 13

(* --- binary encoding ---------------------------------------------------- *)

(* Writer: [encoded_size] gives the exact frame length, so each frame is
   one [Bytes.create] written in place, with no growing buffer and no
   final copy. *)

let set_i32 b pos n = Bytes.set_int32_le b pos (Int32.of_int n)

(* Tag and 32-bit length of a length-prefixed value; returns where its
   payload starts. *)
let write_len b pos tag n =
  Bytes.set b pos tag;
  set_i32 b (pos + 1) n;
  pos + 5

let write_i64 b pos tag v =
  Bytes.set b pos tag;
  Bytes.set_int64_le b (pos + 1) v;
  pos + 9

let write_pair b pos tag v n =
  let pos = write_i64 b pos tag v in
  set_i32 b pos n;
  pos + 4

let write_bytes b pos src =
  let n = Bytes.length src in
  Bytes.blit src 0 b pos n;
  pos + n

let rec write_value b pos = function
  | Unit ->
      Bytes.set b pos '\000';
      pos + 1
  | I64 v -> write_i64 b pos '\001' v
  | F64 v -> write_i64 b pos '\002' (Int64.bits_of_float v)
  | Str s ->
      let n = String.length s in
      let pos = write_len b pos '\003' n in
      Bytes.blit_string s 0 b pos n;
      pos + n
  | Blob src -> write_bytes b (write_len b pos '\004' (Bytes.length src)) src
  | Handle h -> write_i64 b pos '\005' h
  | List vs -> write_values b (write_len b pos '\006' (List.length vs)) vs
  | Blob_ref { br_digest; br_size } -> write_pair b pos '\007' br_digest br_size
  | Blob_cached { bc_digest; bc_data } ->
      let pos = write_pair b pos '\008' bc_digest (Bytes.length bc_data) in
      write_bytes b pos bc_data
  | Mapped_ref { mr_iova; mr_size } -> write_pair b pos '\009' mr_iova mr_size

and write_values b pos = function
  | [] -> pos
  | v :: vs -> write_values b (write_value b pos v) vs

let rec values_size acc = function
  | [] -> acc
  | v :: vs -> values_size (acc + encoded_size v) vs

let frame_size vs = values_size 4 vs

(* A nested frame is a [Blob] whose payload is that frame. *)
let rec write_nested b pos = function
  | [] -> ()
  | f :: fs ->
      let pos = write_len b pos '\004' (frame_size f) in
      set_i32 b pos (List.length f);
      write_nested b (write_values b (pos + 4) f) fs

let encode_nested values frames =
  let size =
    List.fold_left
      (fun acc f -> acc + 5 + frame_size f)
      (frame_size values) frames
  in
  let b = Bytes.create size in
  set_i32 b 0 (List.length values + List.length frames);
  write_nested b (write_values b 4 values) frames;
  b

let encode values = encode_nested values []

(* Reader: the one set of checks behind [decode] and [Message.decode]/
   [Message.peek].  [copy:false] validates every byte exactly as
   [copy:true] does but leaves [Blob]/[Blob_cached] payloads in place,
   returning them empty. *)

exception Decode_error of string

type reader = { data : bytes; mutable pos : int; limit : int }

let reader data ~off ~len = { data; pos = off; limit = off + len }
let fail msg = raise (Decode_error msg)
let need r n = if r.pos + n > r.limit then fail "truncated message"

let u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let i32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.data r.pos) in
  r.pos <- r.pos + 4;
  v

let i64 r =
  need r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

(* A length-prefixed payload: checks it fits and steps over it,
   returning its offset. *)
let span r what =
  let n = i32 r in
  if n < 0 then fail ("negative " ^ what ^ " length");
  need r n;
  let off = r.pos in
  r.pos <- r.pos + n;
  (off, n)

let payload ~copy r what =
  let off, n = span r what in
  if copy then Bytes.sub r.data off n else Bytes.empty

let count r what =
  let n = i32 r in
  if n < 0 || n > 1_000_000 then fail ("implausible " ^ what);
  n

(* [List.init n (fun _ -> read_value r)] must not be used here: the order
   in which [List.init] applies its closure is unspecified, and reading
   advances [r.pos].  Decode strictly left to right. *)
let rec read_list ~copy r n acc =
  if n = 0 then List.rev acc
  else
    let v = read_value ~copy r in
    read_list ~copy r (n - 1) (v :: acc)

and read_value ~copy r =
  match u8 r with
  | 0 -> Unit
  | 1 -> I64 (i64 r)
  | 2 -> F64 (Int64.float_of_bits (i64 r))
  | 3 ->
      let off, n = span r "string" in
      Str (Bytes.sub_string r.data off n)
  | 4 -> Blob (payload ~copy r "blob")
  | 5 -> Handle (i64 r)
  | 6 -> List (read_list ~copy r (count r "list length") [])
  | 7 ->
      let d = i64 r in
      let n = i32 r in
      if n < 0 then fail "negative blob-ref size";
      Blob_ref { br_digest = d; br_size = n }
  | 8 ->
      let d = i64 r in
      Blob_cached { bc_digest = d; bc_data = payload ~copy r "cached-blob" }
  | 9 ->
      let iova = i64 r in
      let n = i32 r in
      if n < 0 then fail "negative mapped-ref size";
      (* Range-check at the trust boundary: a reference outside the
         IOVA window (or overrunning it) can never reach the IOMMU. *)
      if
        Int64.compare iova Ava_device.Iommu.iova_base < 0
        || Int64.compare
             (Int64.add iova (Int64.of_int n))
             Ava_device.Iommu.iova_limit
           > 0
      then fail "mapped-ref IOVA out of range";
      Mapped_ref { mr_iova = iova; mr_size = n }
  | tag -> fail (Printf.sprintf "unknown tag %d" tag)

let read_values ~copy r n = read_list ~copy r n []

let read_int r =
  if u8 r <> 1 then fail "expected an integer";
  let v = i64 r in
  if fits_int v then Int64.to_int v else fail "integer out of range"

let read_count r = count r "value count"

let read_blob_span r =
  if u8 r <> 4 then fail "expected a blob";
  span r "blob"

let read_end r = if r.pos <> r.limit then fail "trailing bytes"

let decode data =
  let r = reader data ~off:0 ~len:(Bytes.length data) in
  match
    let vs = read_values ~copy:true r (read_count r) in
    read_end r;
    vs
  with
  | vs -> Ok vs
  | exception Decode_error msg -> Error msg
