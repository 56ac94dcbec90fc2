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
  reply_ret : Wire.value;
  reply_outs : Wire.value list;  (** out-parameters, in declaration order *)
}

type upcall = { up_vm : int; up_cb : int; up_args : Wire.value list }

type skip = { skip_vm : int; skip_seqs : int list }

type nak = { nak_vm : int; nak_seq : int; nak_digests : int64 list }

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

val encode : t -> bytes
(** One presized allocation per frame; a [Batch] writes its members'
    [Call] frames straight into it. *)

val batch_of_frames : bytes list -> bytes
(** The [Batch] frame whose members are the given, already encoded,
    [Call] frames: [batch_of_frames (List.map (fun c -> encode (Call c)) cs)]
    equals [encode (Batch cs)]. *)

val decode : bytes -> (t, string) result
(** Total: corrupt or truncated input, or a seq, vm, status or callback id
    outside the native [int] range, yields [Error], never an exception. *)

val peek : bytes -> (t * (int * int) list, string) result
(** The frame without its payloads, for readers that need only headers
    and scalars.  It applies every check {!decode} does and returns
    [Error] on exactly the same inputs, but never copies a [Blob] or
    [Blob_cached] payload: those come back empty.  Other values, the
    kind, seqs, vm, fn and status are as {!decode} returns them.  For a
    [Batch], the list gives each member's [Call] sub-frame as
    [(offset, length)] within the peeked bytes, in member order; it is
    empty for every other kind. *)

val pp : Format.formatter -> t -> unit
