(** Call and reply frames exchanged between guest library, router and
    API server. *)

type call = {
  call_seq : int;  (** per-stub sequence number, matches replies *)
  call_vm : int;
  call_fn : string;
  call_args : Wire.value list;  (** one value per C parameter, in order *)
}

type reply = {
  reply_seq : int;
  reply_status : int;  (** 0 = success; otherwise an API error code *)
  reply_mark : int;
      (** the server's acknowledgement mark, as in {!ack}; 0 on a reply
          the router synthesizes, which acknowledges nothing *)
  reply_failed : (int * int) list;  (** as [ack_failed] *)
  reply_ret : Wire.value;
  reply_outs : Wire.value list;  (** out-parameters, in declaration order *)
}

type upcall = { up_vm : int; up_cb : int; up_args : Wire.value list }

type skip = { skip_vm : int; skip_seqs : int list }

type nak = { nak_vm : int; nak_seq : int; nak_digests : int64 list }

type ack = { ack_vm : int; ack_mark : int; ack_failed : (int * int) list }
(** The server's cumulative acknowledgement: every seq below [ack_mark]
    has executed (or was policed away), and of the seqs in
    [\[ack_mark - failure_span, ack_mark)] exactly those in the
    [ack_failed] runs failed — each answered by a failure reply, the
    server's or the router's.  A run [(lo, hi)] holds the seqs [lo] to
    [hi - 1]; runs are ascending and disjoint, so a long stretch of
    policed-away seqs costs two integers.  A successful asynchronous call whose plan leaves its
    reply unread ({!Ava_codegen.Plan.acknowledged}) gets no reply: the
    mark retires it. *)

val failure_span : int
(** How far below the mark an acknowledgement names failed seqs: 1024.
    A stub retires an unreplied call only within this span of a mark,
    so a failure whose reply was lost is never retired as a success. *)

type t =
  | Call of call
  | Reply of reply
  | Batch of call list
      (** rCUDA-style API batching: several asynchronously forwarded
          calls in one transport message, executed in order *)
  | Upcall of upcall
      (** server-to-guest callback invocation (spec [callback]
          parameters) *)
  | Skip of skip
      (** router-to-server notice that the named seqs were policed away
          and will never arrive, so in-order execution can advance past
          them *)
  | Nak of nak
      (** server-to-guest cache-miss notice: the named [Blob_ref] digests
          were not in the content store — the stub must re-send the full
          payload under the same seq *)
  | Ack of ack
      (** server-to-guest acknowledgement of executed calls, sent when
          enough executions are unacknowledged, when the server falls
          idle with some unacknowledged, before a skip notice passes
          unacknowledged executions, and in answer to a resend of an
          acknowledged seq within {!failure_span} of the mark; every
          server reply carries the same mark *)

val iovec : copy:bool -> t -> bytes array
(** The frame as the segments a transport carries: a [Call] or [Reply]
    frame ends a segment right after the header of each [Blob] or
    [Blob_cached] payload of at least [Dma.page_size] bytes, and that
    payload is the next segment ({!Wire.frame}): a copy of it when
    [copy], the payload itself otherwise.  Other frames, batches
    included, are one segment.  The concatenation of the segments is
    {!encode}[ m].  Headers are written in place, with no value list
    built around the arguments. *)

val encode : t -> bytes
(** The flat frame: [Wire.encode] of the frame's generic value list.  A
    [Batch] is {!batch_of_frames} of its members' [Call] frames. *)

val batch_of_frames : bytes array list -> bytes array
(** The one-segment [Batch] frame whose members are the given, already
    encoded, [Call] frames: [batch_of_frames (List.map (fun c -> iovec
    ~copy (Call c)) cs)] is [[| encode (Batch cs) |]]. *)

(** {1 Decoding} *)

type decoder
(** A receiver's reusable readers. *)

val decoder : share:bool -> decoder
(** A sharing decoder returns each payload that arrived as a segment of
    its own as that segment, uncopied (the API server: nothing mutates
    a request's payloads).  A non-sharing one copies every payload out
    (the guest stub: a reply's payloads become the guest's own). *)

val read_message : decoder -> bytes array -> (t, string) result
(** Total: corrupt or truncated input, segments that disagree with the
    headers, a batch of more than one segment, or a seq, vm, status or
    callback id outside the native [int] range, yields [Error], never
    an exception.  The segments decode to the same message as their
    concatenation. *)

val decode : bytes -> (t, string) result
(** {!read_message} of a one-segment frame, with a fresh non-sharing
    decoder. *)

(** {1 Frame cursor}

    The router's view of a frame: headers and scalars, read straight
    from the bytes.  A read applies every check {!decode} does and fails
    on exactly the same inputs, but builds no {!t}, no value list and no
    payload copy, and a cursor is reused frame after frame.  For a
    [Call] or [Batch] frame it yields each member call's seq, vm, fn,
    arity, scalar view and sub-frame span; for a [Reply], its seq,
    status and mark; for an [Ack], its mark. *)

type kind = K_call | K_reply | K_batch | K_upcall | K_skip | K_nak | K_ack

type cursor

val cursor : unit -> cursor

val read : cursor -> bytes array -> (kind, string) result
(** Read a frame's segments; the accessors below describe the last frame
    read. *)

val members : cursor -> int
(** Member calls: 1 for a [Call] frame, the member count of a [Batch],
    0 for every other kind (and after an [Error]). *)

val seq : cursor -> int -> int
(** [seq cu i]: member [i]'s [call_seq]. *)

val vm : cursor -> int -> int

val fn : cursor -> int -> string
(** Member [i]'s function name, interned as by [Wire.read_name]. *)

val arity : cursor -> int -> int
(** Member [i]'s argument count. *)

val scalars : cursor -> int -> Ava_codegen.Plan.scalars
(** Member [i]'s arguments as a scalar view: position [j] is bound iff
    [Wire.to_int] of argument [j] is [Some].  Valid until the next
    read. *)

val member_off : cursor -> int -> int
val member_len : cursor -> int -> int
(** Member [i]'s [Call] sub-frame: the whole frame (all its segments)
    for a [Call], the member's blob payload within the one segment of a
    [Batch]. *)

val reply_seq : cursor -> int
val reply_status : cursor -> int

val mark : cursor -> int
(** The acknowledgement mark of a [Reply] or [Ack] frame. *)

val pp : Format.formatter -> t -> unit
