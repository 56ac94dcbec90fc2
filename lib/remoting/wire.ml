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

(* Out-of-range values must surface as [None], not wrap: a 64-bit handle
   truncated to a native int would silently alias another object.  The
   comparisons are on [int64]-typed operands, so they compile inline and
   never box. *)
let min_int64 = Int64.of_int min_int
let max_int64 = Int64.of_int max_int
let[@inline] fits_int (v : int64) = v >= min_int64 && v <= max_int64

(* Small integers recur in every frame (offsets, sizes, counts, flags,
   return codes): [int] and the decoder share one immutable [I64] for
   each of them instead of boxing a fresh one. *)
let small_min = -128
let small_max = 1023

let small_ints =
  Array.init (small_max - small_min + 1) (fun i ->
      I64 (Int64.of_int (i + small_min)))

let int n =
  if n >= small_min && n <= small_max then small_ints.(n - small_min)
  else I64 (Int64.of_int n)

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
  | List vs -> 5 + values_size vs
  | Blob_ref _ -> 13
  | Blob_cached { bc_data; _ } -> 13 + Bytes.length bc_data
  | Mapped_ref _ -> 13

and values_size = function
  | [] -> 0
  | v :: vs -> encoded_size v + values_size vs

(* --- binary encoding ---------------------------------------------------- *)

(* Writer: [encoded_size] gives the exact frame length, so each frame is
   one [Bytes.create] written in place, with no growing buffer and no
   final copy. *)

let set_i32 b pos n = Bytes.set_int32_le b pos (Int32.of_int n)

let write_count b pos n =
  set_i32 b pos n;
  pos + 4

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

let write_int b pos n = write_i64 b pos '\001' (Int64.of_int n)

let write_pair b pos tag v n =
  let pos = write_i64 b pos tag v in
  set_i32 b pos n;
  pos + 4

let write_bytes b pos src =
  let n = Bytes.length src in
  Bytes.blit src 0 b pos n;
  pos + n

let write_str b pos s =
  let n = String.length s in
  let pos = write_len b pos '\003' n in
  Bytes.blit_string s 0 b pos n;
  pos + n

let write_blob_header b pos n = write_len b pos '\004' n

let rec write_value b pos = function
  | Unit ->
      Bytes.set b pos '\000';
      pos + 1
  | I64 v -> write_i64 b pos '\001' v
  | F64 v -> write_i64 b pos '\002' (Int64.bits_of_float v)
  | Str s -> write_str b pos s
  | Blob src -> write_bytes b (write_blob_header b pos (Bytes.length src)) src
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

(* A frame whose values, [size] bytes of them, start at [head], the
   bytes before them left to the caller. *)
let flat ~head size values =
  let b = Bytes.create (head + size) in
  ignore (write_values b head values);
  b

let encode values =
  let b = flat ~head:4 (values_size values) values in
  ignore (write_count b 0 (List.length values));
  b

(* --- segments ----------------------------------------------------------- *)

(* A [Blob] or [Blob_cached] payload of at least a page crosses by
   reference: its frame's segment ends right after the payload's header,
   and the payload is the next segment.  SVA pins blobs from the same
   size on. *)
let by_ref n = n >= Ava_device.Dma.page_size

let rec cuts = function
  | Blob b -> if by_ref (Bytes.length b) then 1 else 0
  | Blob_cached { bc_data; _ } -> if by_ref (Bytes.length bc_data) then 1 else 0
  | List vs -> list_cuts vs
  | Unit | I64 _ | F64 _ | Str _ | Handle _ | Blob_ref _ | Mapped_ref _ -> 0

and list_cuts = function [] -> 0 | v :: vs -> cuts v + list_cuts vs

(* A frame with cuts is written in two walks: the first sizes each head
   segment (the bytes between two payloads), the second writes them.
   Head segments sit at even indices, payloads at odd ones. *)
let rec size_values sizes i = function
  | [] -> i
  | v :: vs -> size_values sizes (size_value sizes i v) vs

and size_value sizes i v =
  let grow n = sizes.(i) <- sizes.(i) + n in
  match v with
  | Blob b when by_ref (Bytes.length b) ->
      grow 5;
      i + 1
  | Blob_cached { bc_data; _ } when by_ref (Bytes.length bc_data) ->
      grow 13;
      i + 1
  | List vs when list_cuts vs > 0 ->
      grow 5;
      size_values sizes i vs
  | v ->
      grow (encoded_size v);
      i

type seg_writer = {
  segs : bytes array;
  copy : bool;
  mutable seg : int;  (** the head segment being written *)
  mutable pos : int;
}

let rec write_segs w = function
  | [] -> ()
  | v :: vs ->
      write_seg w v;
      write_segs w vs

and write_seg w v =
  let b = w.segs.(w.seg) in
  match v with
  | Blob p when by_ref (Bytes.length p) ->
      ignore (write_blob_header b w.pos (Bytes.length p));
      payload_seg w p
  | Blob_cached { bc_digest; bc_data } when by_ref (Bytes.length bc_data) ->
      ignore (write_pair b w.pos '\008' bc_digest (Bytes.length bc_data));
      payload_seg w bc_data
  | List vs when list_cuts vs > 0 ->
      w.pos <- write_len b w.pos '\006' (List.length vs);
      write_segs w vs
  | v -> w.pos <- write_value b w.pos v

and payload_seg w p =
  w.segs.(w.seg + 1) <- (if w.copy then Bytes.copy p else p);
  w.seg <- w.seg + 2;
  w.pos <- 0

(* Only values of at least a page can hold a payload to cut. *)
let frame ~cut ~copy ~head values =
  let size = values_size values in
  let k = if cut && by_ref size then list_cuts values else 0 in
  if k = 0 then [| flat ~head size values |]
  else begin
    let sizes = Array.make (k + 1) 0 in
    sizes.(0) <- head;
    ignore (size_values sizes 0 values);
    let segs = Array.make ((2 * k) + 1) Bytes.empty in
    Array.iteri (fun i n -> if n > 0 then segs.(2 * i) <- Bytes.create n) sizes;
    write_segs { segs; copy; seg = 0; pos = head } values;
    segs
  end

(* Reader: the one set of checks behind [decode], [Message.decode] and
   the router's frame cursor.  [scan] checks one value's tag and fixed
   fields and steps over it; building ([read_value]) and skipping
   ([scan_value]) both start from it, so they accept exactly the same
   frames. *)

exception Decode_error of string

type reader = {
  share : bool;
      (** a payload that is a whole segment is returned as it is, not
          copied *)
  mutable segs : bytes array;
  mutable seg : int;  (** index of [data] in [segs]; -1 for a range *)
  mutable data : bytes;
  mutable pos : int;
  mutable limit : int;
  mutable v_data : bytes;
      (** the bytes holding the last scanned blob's payload: [data], or
          the segment of a payload that crossed by reference *)
  mutable v_at : int;
      (** offset of the last scanned value's payload: the 8 bytes of an
          [I64]/[F64]/[Handle], the digest or IOVA of a ref, the bytes
          of a [Str] in [data], those of a [Blob]/[Blob_cached] in
          [v_data] *)
  mutable v_len : int;
      (** its length, list length or ref size *)
  mutable v_int : int;
      (** its value, after [scan_value] returned [true]; a
          [Blob_cached]'s digest offset in [v_head] *)
  mutable v_head : bytes;  (** the segment holding a [Blob_cached]'s digest *)
}

let no_segs : bytes array = [||]

let reader ~share =
  {
    share;
    segs = no_segs;
    seg = -1;
    data = Bytes.empty;
    pos = 0;
    limit = 0;
    v_data = Bytes.empty;
    v_at = 0;
    v_len = 0;
    v_int = 0;
    v_head = Bytes.empty;
  }

(* A reader outlives the frames it reads, so each pointer it stores
   pays the write barrier: a one-segment frame, the common case, is
   read as a range and stores only its bytes. *)
let reset_range r data ~off ~len =
  if r.segs != no_segs then r.segs <- no_segs;
  r.seg <- -1;
  r.data <- data;
  r.pos <- off;
  r.limit <- off + len

(* Holding on to the last frame would keep it, and each payload the
   reader handed out, alive past the next minor collection, which then
   promotes them: a reader lets go as soon as a frame is read. *)
let release r =
  if r.segs != no_segs then r.segs <- no_segs;
  if r.data != Bytes.empty then r.data <- Bytes.empty;
  if r.v_data != Bytes.empty then r.v_data <- Bytes.empty;
  if r.v_head != Bytes.empty then r.v_head <- Bytes.empty

let reset r segs =
  match Array.length segs with
  | 0 -> reset_range r Bytes.empty ~off:0 ~len:0
  | 1 ->
      let data = Array.unsafe_get segs 0 in
      reset_range r data ~off:0 ~len:(Bytes.length data)
  | _ ->
      r.segs <- segs;
      r.seg <- 0;
      r.data <- segs.(0);
      r.pos <- 0;
      r.limit <- Bytes.length segs.(0)

let value_off r = r.v_at
let fail msg = raise (Decode_error msg)
let[@inline] need r n = if r.pos + n > r.limit then fail "truncated message"

(* The per-byte helpers are inlined: a frame read is a long run of them. *)
let[@inline] u8 r =
  need r 1;
  let v = Char.code (Bytes.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let[@inline] i32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.data r.pos) in
  r.pos <- r.pos + 4;
  v

(* Steps over a fixed 8-byte field, remembering where it starts. *)
let[@inline] skip8 r =
  need r 8;
  r.v_at <- r.pos;
  r.pos <- r.pos + 8

(* A length-prefixed payload in line: checks it fits and steps over
   it. *)
let[@inline] in_line r n =
  need r n;
  r.v_at <- r.pos;
  r.v_len <- n;
  r.pos <- r.pos + n

let[@inline] span_length r what =
  let n = i32 r in
  if n < 0 then fail ("negative " ^ what ^ " length");
  n

(* A blob's payload.  A header that ends its segment, with a segment
   after it, is the header of that next segment, which must be exactly
   as long; reading resumes at the segment after the payload. *)
let blob_span r what =
  let n = span_length r what in
  if r.pos = r.limit && r.seg + 1 < Array.length r.segs then begin
    let p = r.segs.(r.seg + 1) in
    if Bytes.length p <> n then fail (what ^ " segment of the wrong length");
    if r.seg + 2 = Array.length r.segs then fail "missing segment";
    r.v_data <- p;
    r.v_at <- 0;
    r.v_len <- n;
    r.seg <- r.seg + 2;
    r.data <- r.segs.(r.seg);
    r.pos <- 0;
    r.limit <- Bytes.length r.data
  end
  else begin
    in_line r n;
    r.v_data <- r.data
  end

let count r what =
  let n = i32 r in
  if n < 0 || n > 1_000_000 then fail ("implausible " ^ what);
  n

let[@inline] get64 r = Bytes.get_int64_le r.data r.v_at

(* A 64-bit field followed by a non-negative 32-bit size. *)
let[@inline] ref_pair r what =
  skip8 r;
  let at = r.v_at in
  let n = i32 r in
  if n < 0 then fail ("negative " ^ what ^ " size");
  r.v_at <- at;
  r.v_len <- n

(* Checks the next value's tag and fixed fields and steps over it,
   except that a list's elements are left to the caller ([v_len] holds
   their count).  Returns the tag. *)
let scan r =
  let tag = u8 r in
  (match tag with
  | 0 -> ()
  | 1 | 2 | 5 -> skip8 r
  | 3 -> in_line r (span_length r "string")
  | 4 -> blob_span r "blob"
  | 6 -> r.v_len <- count r "list length"
  | 7 -> ref_pair r "blob-ref"
  | 8 ->
      skip8 r;
      r.v_head <- r.data;
      r.v_int <- r.v_at;
      blob_span r "cached-blob"
  | 9 ->
      ref_pair r "mapped-ref";
      (* Range-check at the trust boundary: a reference outside the
         IOVA window (or overrunning it) can never reach the IOMMU. *)
      let iova = get64 r in
      if
        iova < Ava_device.Iommu.iova_base
        || Int64.add iova (Int64.of_int r.v_len) > Ava_device.Iommu.iova_limit
      then fail "mapped-ref IOVA out of range"
  | tag -> fail (Printf.sprintf "unknown tag %d" tag));
  tag

(* A payload that is a whole segment is shared by a sharing reader;
   any other is copied out (an in-line payload never starts at 0: its
   header precedes it). *)
let payload r =
  if r.share && r.v_at = 0 && r.v_len = Bytes.length r.v_data then r.v_data
  else Bytes.sub r.v_data r.v_at r.v_len

(* Lists are built in order as they are read, left to right: [List.init]
   must not be used here, since the order in which it applies its
   closure is unspecified and reading advances [r.pos]. *)
let[@tail_mod_cons] rec read_values r n =
  if n = 0 then []
  else
    let v = read_value r in
    v :: read_values r (n - 1)

and read_value r =
  match scan r with
  | 0 -> Unit
  | 1 ->
      let v = get64 r in
      if v >= Int64.of_int small_min && v <= Int64.of_int small_max then
        small_ints.(Int64.to_int v - small_min)
      else I64 v
  | 2 -> F64 (Int64.float_of_bits (get64 r))
  | 3 -> Str (Bytes.sub_string r.data r.v_at r.v_len)
  | 4 -> Blob (payload r)
  | 5 -> Handle (get64 r)
  | 6 -> List (read_values r r.v_len)
  | 7 -> Blob_ref { br_digest = get64 r; br_size = r.v_len }
  | 8 ->
      let data = payload r in
      Blob_cached
        { bc_digest = Bytes.get_int64_le r.v_head r.v_int; bc_data = data }
  | _ -> Mapped_ref { mr_iova = get64 r; mr_size = r.v_len }

let rec skip_elements r n =
  if n > 0 then begin
    if scan r = 6 then skip_elements r r.v_len;
    skip_elements r (n - 1)
  end

let scan_value r =
  match scan r with
  | 1 | 5 ->
      let v = get64 r in
      if fits_int v then begin
        r.v_int <- Int64.to_int v;
        true
      end
      else false
  | 6 ->
      skip_elements r r.v_len;
      false
  | _ -> false

let scanned_int r = r.v_int

let read_int r =
  if scan r <> 1 then fail "expected an integer";
  let v = get64 r in
  if fits_int v then Int64.to_int v else fail "integer out of range"

let read_i64 r =
  if scan r <> 1 then fail "expected an integer";
  get64 r

(* Interned names: function names recur on every frame, so [read_name]
   hands out one shared copy of each name a plan declares.  Only
   {!intern_plan} adds to the table; a name read off the wire never
   enters it (an unknown name comes back as a fresh string), so the
   table and its chains are the program's own names, whatever a guest
   sends. *)
let intern_buckets = 1024
let interned : string list array = Array.make intern_buckets []

(* A bucket index from the name's length and its first and last eight
   bytes (names sharing a prefix, like the [clEnqueue*] family, differ
   at the end); shorter names are folded byte by byte. *)
let name_hash data off len =
  let h =
    if len >= 8 then
      Int64.to_int (Bytes.get_int64_le data off) * 31
      + Int64.to_int (Bytes.get_int64_le data (off + len - 8))
    else begin
      let h = ref 0 in
      for i = off to off + len - 1 do
        h := (!h * 31) + Char.code (Bytes.unsafe_get data i)
      done;
      !h
    end
  in
  ((h + (len * 0x9e3779b1)) lxor (h lsr 17)) land (intern_buckets - 1)

(* Eight bytes at a time, then the tail. *)
let rec same_from s data off len i =
  if i + 8 <= len then
    String.get_int64_le s i = Bytes.get_int64_le data (off + i)
    && same_from s data off len (i + 8)
  else
    i = len
    || Char.equal (String.unsafe_get s i) (Bytes.unsafe_get data (off + i))
       && same_from s data off len (i + 1)

let same_name s data off len = String.length s = len && same_from s data off len 0

let rec find_name data off len = function
  | [] -> raise_notrace Not_found
  | s :: rest -> if same_name s data off len then s else find_name data off len rest

let intern data off len =
  match find_name data off len interned.(name_hash data off len) with
  | s -> s
  | exception Not_found -> Bytes.sub_string data off len

let intern_plan plan =
  List.iter
    (fun name ->
      let data = Bytes.unsafe_of_string name in
      let len = String.length name in
      let h = name_hash data 0 len in
      match find_name data 0 len interned.(h) with
      | _ -> ()
      | exception Not_found -> interned.(h) <- name :: interned.(h))
    (Ava_codegen.Plan.function_names plan)

let read_name r =
  if scan r <> 3 then fail "expected a name";
  intern r.data r.v_at r.v_len

(* A one-character [Str]: the kind tag of a message frame.  Any other
   string reads as ['\000'], which no frame kind uses. *)
let read_kind r =
  if scan r <> 3 then fail "expected a kind tag";
  if r.v_len = 1 then Bytes.unsafe_get r.data r.v_at else '\000'

let read_count r = count r "value count"

let read_blob r =
  if scan r <> 4 then fail "expected a blob";
  r.v_len

let read_end r =
  if r.pos <> r.limit then fail "trailing bytes";
  if r.seg + 1 <> Array.length r.segs then fail "trailing segments"

let decode data =
  let r = reader ~share:false in
  reset_range r data ~off:0 ~len:(Bytes.length data);
  match
    let vs = read_values r (read_count r) in
    read_end r;
    vs
  with
  | vs -> Ok vs
  | exception Decode_error msg -> Error msg

(* The scalar view of an argument list: every position holding an int
   ({!to_int} would give [Some]) is bound, the rest are not.  A loop
   rather than [List.iteri], whose closure would allocate per call. *)
let rec bind_scalars sv i = function
  | [] -> ()
  | v :: rest ->
      (match v with
      | (I64 n | Handle n) when fits_int n ->
          Ava_codegen.Plan.bind_scalar sv i (Int64.to_int n)
      | _ -> ());
      bind_scalars sv (i + 1) rest

let load_scalars sv args =
  Ava_codegen.Plan.clear_scalars sv;
  bind_scalars sv 0 args
