(** Wire values: the dynamic representation every forwarded API call is
    marshalled into.

    Handles are guest-visible integers (the API server maintains the
    id → host-object mapping), so values survive any transport and any
    server replacement during migration. *)

type value =
  | Unit
  | I64 of int64
  | F64 of float
  | Str of string
  | Blob of bytes
  | Handle of int64
  | List of value list
  | Blob_ref of { br_digest : int64; br_size : int }
      (** Content-addressed stand-in for a [Blob] whose payload the server
          has already acknowledged: 13 bytes on the wire regardless of
          payload size. *)
  | Blob_cached of { bc_digest : int64; bc_data : bytes }
      (** A [Blob] payload travelling together with its digest — announces
          the digest to the server's content store. *)
  | Mapped_ref of { mr_iova : int64; mr_size : int }
      (** SVA buffer reference: the payload stays in guest pages pinned
          into the device IOVA window ([Ava_device.Iommu]); only
          (iova, size) crosses the wire — 13 bytes regardless of payload
          size.  Decode rejects references outside the IOVA window. *)

val int : int -> value
(** Shorthand for [I64 (Int64.of_int n)].  Small integers come back as
    one shared immutable value each, as the decoder returns them. *)

val to_int : value -> int option
(** Integer view of [I64] or [Handle] values. [None] when the payload does
    not fit the native [int] range (it is never silently wrapped). *)

val digest : bytes -> int64
(** XXH64 over the payload — the content address used by the transfer
    cache.  The same kernel ({!Ava_transport.Hash64}) computes the
    [Faults] checksum envelope. *)

val equal : value -> value -> bool
val pp : Format.formatter -> value -> unit

val encoded_size : value -> int
(** Size of the encoded form, for payload accounting. *)

val encode : value list -> bytes
(** One presized allocation: the frame is [4 + Σ encoded_size] bytes,
    written in place. *)

val decode : bytes -> (value list, string) result
(** Total: corrupt or truncated input yields [Error], never an
    exception. *)

(** {2 Segments}

    A frame may cross as an iovec ([Ava_transport.Transport]): a
    [Blob] or [Blob_cached] payload of at least [Dma.page_size] bytes
    then travels as a segment of its own, right after the head segment
    its header ends.  The concatenation of the segments is the flat
    frame, byte for byte. *)

val cuts : value -> int
(** Payloads in the value that cross as segments of their own. *)

val frame : cut:bool -> copy:bool -> head:int -> value list -> bytes array
(** The values written from offset [head] of the first segment, whose
    first [head] bytes are left to the caller.  With [cut], each
    page-sized payload is its own segment, a copy of it when [copy],
    the payload itself otherwise; head segments sit at even indices.
    Without [cut], one flat segment. *)

(** {2 In-place writers}

    The pieces {!frame} is made of, for frames whose header fields are
    written straight into the first segment ([Message.iovec]).  Each
    writes at a position and returns the position after what it wrote. *)

val write_count : bytes -> int -> int -> int
(** A frame's 4-byte value count. *)

val write_int : bytes -> int -> int -> int
(** The encoding of [int n]. *)

val write_str : bytes -> int -> string -> int
(** The encoding of [Str s]. *)

val write_blob_header : bytes -> int -> int -> int
(** The tag and length of a [Blob] of [n] bytes; its payload follows. *)

val write_value : bytes -> int -> value -> int

(** {2 Validating reader}

    The one set of checks behind {!decode}, [Message.decode] and the
    router's frame cursor: tags, lengths, list bounds, the IOVA window,
    segment lengths and trailing bytes or segments.  Building a value
    and skipping it share them, so both accept exactly the same frames.
    A blob header that ends its segment, with a segment after it, is
    the header of that next segment, which must be exactly as long.
    Reading functions raise {!Decode_error}. *)

exception Decode_error of string

type reader

val reader : share:bool -> reader
(** A reader at no frame yet.  A sharing reader returns a payload that
    is a whole segment as that segment, uncopied; every other payload,
    and every payload of a non-sharing reader, is copied out. *)

val reset : reader -> bytes array -> unit
(** Point the reader at a frame's segments, so one reader serves
    many. *)

val reset_range : reader -> bytes -> off:int -> len:int -> unit
(** Point the reader at the one-segment frame occupying [len] bytes at
    [off]. *)

val release : reader -> unit
(** Let go of the frame last read, so that a long-lived reader keeps no
    frame or payload alive. *)

val read_count : reader -> int
(** The frame's value count. *)

val read_value : reader -> value
(** The next value; payloads are copied out of the frame unless the
    reader shares them.  Small [I64]s are the shared values {!int}
    returns. *)

val read_values : reader -> int -> value list
(** The next [n] values, in order, read as by {!read_value}. *)

val scan_value : reader -> bool
(** Checks and steps over the next value exactly as {!read_value} does,
    building nothing.  [true] iff it is an [I64] or [Handle] in the
    native [int] range ({!to_int} would give [Some]); {!scanned_int} is
    then its value. *)

val scanned_int : reader -> int

val read_int : reader -> int
(** The next value must be an [I64] that fits the native [int] range (the
    check {!to_int} makes); out-of-range values are an error, never
    wrapped.  Allocates nothing. *)

val read_i64 : reader -> int64
(** The next value must be an [I64]. *)

val read_name : reader -> string
(** The next value must be a [Str]: a function name.  A name some plan
    passed to {!intern_plan} comes back as that plan's shared copy; any
    other name is a fresh string and is not kept. *)

val intern_plan : Ava_codegen.Plan.t -> unit
(** Adds every function name of the plan to the table {!read_name}
    serves, once each.  This is the only way into the table, so names
    from outside the program never grow it. *)

val read_kind : reader -> char
(** The next value must be a [Str]: a frame's kind tag.  A string that
    is not one character long reads as ['\000']. *)

val read_blob : reader -> int
(** The next value must be a [Blob]: its payload's length.  The payload
    of a blob in line stays in place, at {!value_off} in the segment
    being read. *)

val value_off : reader -> int
(** Where the payload of the value just read starts. *)

val read_end : reader -> unit
(** Fails unless the whole frame has been read. *)

val load_scalars : Ava_codegen.Plan.scalars -> value list -> unit
(** Fill a scalar view from an argument list: position [i] is bound iff
    {!to_int} of the [i]th value is [Some]. *)
