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
(** Shorthand for [I64 (Int64.of_int n)]. *)

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

val encode_nested : value list -> value list list -> bytes
(** [encode_nested vs frames] equals
    [encode (vs @ List.map (fun f -> Blob (encode f)) frames)], but each
    nested frame is written straight into the one outer buffer. *)

val decode : bytes -> (value list, string) result
(** Total: corrupt or truncated input yields [Error], never an
    exception. *)

(** {2 Validating reader}

    The one set of checks behind {!decode} and [Message.decode]/
    [Message.peek]: tags, lengths, list bounds, the IOVA window and
    trailing bytes.  Reading functions raise {!Decode_error}. *)

exception Decode_error of string

type reader

val reader : bytes -> off:int -> len:int -> reader
(** Reads the frame occupying [len] bytes at [off]. *)

val read_count : reader -> int
(** The frame's value count. *)

val read_value : copy:bool -> reader -> value
(** The next value.  With [~copy:false] it is checked exactly as with
    [~copy:true], but [Blob]/[Blob_cached] payloads are not copied out:
    they come back empty. *)

val read_values : copy:bool -> reader -> int -> value list
(** The next [n] values, in order, read as by {!read_value}. *)

val read_int : reader -> int
(** The next value must be an [I64] that fits the native [int] range (the
    check {!to_int} makes); out-of-range values are an error, never
    wrapped. *)

val read_blob_span : reader -> int * int
(** The next value must be a [Blob]: its payload's offset and length in
    the underlying bytes, without copying it. *)

val read_end : reader -> unit
(** Fails unless the whole frame has been read. *)
