(** The silo kit: everything an AvA-generated silo does that does not
    depend on which API it virtualizes.

    A silo declares each API function once ([fn0] ... [fn6] of {!Make}):
    its name, the wire form of each parameter in order, its reply shape
    and the silo function it runs.  The kit derives the guest wrapper
    ([call0] ...) and the server handler ({!Make.register}) from that
    declaration.  Whether a call waits for its reply is the compiled
    plan's to say, never the silo's: every guest call goes through
    {!Make.call}.  A function no declaration can state is written by
    hand beside the table ({!Make.by_hand}).  The silo also brings its
    status <-> error mapping and its live-object accessors ({!live}). *)

module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Message = Ava_remoting.Message
module Wire = Ava_remoting.Wire

(** {1 Wire values} *)

(** [h] is a handle (a virtual id), [u] an out-parameter's placeholder,
    [l] a list of handles. *)

val i : int -> Wire.value
val h : int -> Wire.value
val u : Wire.value
val b : bytes -> Wire.value
val l : int list -> Wire.value

val to_i : Wire.value -> int
(** Range-checked: raises {!Server.Bad_args} outside the native range. *)

val to_b : Wire.value -> bytes
val to_l : Wire.value -> int list

val out : Message.reply -> int -> Wire.value
(** A reply's [n]th out-value; raises {!Server.Bad_args} (the silo's
    failure at a synchronous call) when the reply is short. *)

(** {1 Declarations} *)

type 'a enum = ('a * int) list
(** An enum's wire codes.  A code not in the table is {!Server.Bad_args}
    wherever it is read: a rejected request at the server, a malformed
    reply at the guest. *)

(** How one parameter crosses the wire. *)
type _ form =
  | Handle : int form  (** a virtual id, resolved by the server *)
  | Raw : int form  (** an id that crosses unresolved *)
  | Int : int form
  | Flag : int -> bool form  (** these bits when true, 0 when false *)
  | Enum : 'a enum -> 'a form
  | Blob : bytes form
  | Str : string form  (** a string carried as a blob *)
  | Handles : int list form  (** a list of virtual ids *)
  | Coded : ('a -> bytes) * (bytes -> 'a) -> 'a form
      (** a blob through a codec; the decoder raises {!Server.Bad_args} *)
  | Sized : 'a form -> 'a form  (** the value, then its length *)
  | Counted : 'a form -> 'a form  (** the length, then the value *)

(** One wire slot: the function's first to sixth parameter, an
    out-parameter's placeholder, or a constant. *)
type ('a, 'b, 'c, 'd, 'e, 'f) slot =
  | A of 'a form | B of 'b form | C of 'c form
  | D of 'd form | E of 'e form | F of 'f form
  | Out
  | Const of Wire.value

(** What a successful call answers. *)
type _ returns =
  | Done : unit returns
  | Fresh : Wire.value list -> int returns
      (** a new object: its fresh virtual id, then these out-values *)
  | Ret : 'r form -> 'r returns  (** the result, as the out-values *)

type ('a, 'b, 'c, 'd, 'e, 'f, 'r) fn
(** One API function's declaration. *)

type 'r fn0 = (unit, unit, unit, unit, unit, unit, 'r) fn
type ('a, 'r) fn1 = ('a, unit, unit, unit, unit, unit, 'r) fn
type ('a, 'b, 'r) fn2 = ('a, 'b, unit, unit, unit, unit, 'r) fn
type ('a, 'b, 'c, 'r) fn3 = ('a, 'b, 'c, unit, unit, unit, 'r) fn

val name : ('a, 'b, 'c, 'd, 'e, 'f, 'r) fn -> string

(** {1 A silo's table} *)

(** A silo's table, over its status <-> error mapping ([failure]: a
    local failure, no plan for the call or an unreadable reply) and the
    silo functions ([api]) a handler finds in its per-VM state.

    A silo function keeps {!Server.handler}'s ownership rules: it never
    mutates a [Blob] argument (a page-sized one is the request's own
    segment), and each [Blob] it returns is a fresh buffer it never
    writes again (the reply refers to it and the reply log keeps it).
    The four silos keep both: CL reads, [mvncGetResult], the QA
    outputs, [stMemcpyDtoH] and [stBatchCollect] each return a buffer
    made for that call (a CL read's device DMA writes straight into
    it).  An argument payload a call keeps past its return (a write, a
    tensor, a batch, a submitted source) is copied only for a native
    caller, who may overwrite its source at once.  Each silo's
    [make_state] builds its instance as the owner of its inputs, so the
    device op keeps the request's payload uncopied: nothing writes a
    request segment again. *)
module Make (S : sig
  type error
  type state
  type api

  val of_code : int -> error
  val to_code : error -> int
  val failure : string -> error
  val api : state -> api
end) : sig
  (** Each [fn] declares one function, in wire order, with the silo
      function its handler applies fully.  A handler rejects a frame of
      the wrong width with {!Server.Bad_args} before it decodes anything;
      the reply parser is made once per declaration. *)

  type 'e res := ('e, S.error) result

  val fn0 : string -> (unit, unit, unit, unit, unit, unit) slot list ->
    'r returns -> (S.api -> 'r res) -> 'r fn0

  val fn1 : string -> ('a, unit, unit, unit, unit, unit) slot list ->
    'r returns -> (S.api -> 'a -> 'r res) -> ('a, 'r) fn1

  val on_handle : string -> (S.api -> int -> unit res) -> (int, unit) fn1
  (** A function of one handle that answers [Done]. *)

  val fn2 : string -> ('a, 'b, unit, unit, unit, unit) slot list ->
    'r returns -> (S.api -> 'a -> 'b -> 'r res) -> ('a, 'b, 'r) fn2

  val fn3 : string -> ('a, 'b, 'c, unit, unit, unit) slot list ->
    'r returns -> (S.api -> 'a -> 'b -> 'c -> 'r res) -> ('a, 'b, 'c, 'r) fn3

  val fn6 : string -> ('a, 'b, 'c, 'd, 'e, 'f) slot list ->
    'r returns -> (S.api -> 'a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'r res) ->
    ('a, 'b, 'c, 'd, 'e, 'f, 'r) fn

  val by_hand :
    string -> (S.state Server.t -> S.state Server.handler) -> string
  (** A hand-written function: its name, and its handler given the
      server; returns the name. *)

  val functions : unit -> (string * int option) list
  (** The table so far, in order, with each declaration's wire width. *)

  val register : S.state Server.t -> unit
  (** Install every function's handler. *)

  (** {2 Guest wrappers}

      Each builds its argument list and finishes the call with {!call}.
      A forwarded declared function answers [Ok ()] when it returns
      [Done], and [S.failure] when it has outputs: an async function's
      outputs need a deferred reply or a guest-assigned id, which only a
      hand-written function can give. *)

  val call0 : Stub.t -> 'r fn0 -> unit -> 'r res
  val call1 : Stub.t -> ('a, 'r) fn1 -> 'a -> 'r res
  val call2 : Stub.t -> ('a, 'b, 'r) fn2 -> 'a -> 'b -> 'r res
  val call3 : Stub.t -> ('a, 'b, 'c, 'r) fn3 -> 'a -> 'b -> 'c -> 'r res

  val call6 : Stub.t -> ('a, 'b, 'c, 'd, 'e, 'f, 'r) fn ->
    'a -> 'b -> 'c -> 'd -> 'e -> 'f -> 'r res

  (** {2 The call path} *)

  val call : ?on_reply:(Message.reply -> unit) -> Stub.t -> fn:string ->
    args:Wire.value list -> 'a res -> ('a res -> Message.reply -> 'a res) ->
    'a res
  (** [call stub ~fn ~args ok parse] invokes [fn] ({!Stub.invoke}), which
      waits exactly when the plan says.  A forwarded call answers [ok] at
      once and reports failure through the deferred-error channel
      (§4.2).  A waited call answers a pending deferred error first,
      then its reply's status, then [parse ok reply]; a reply [parse]
      cannot read is [S.failure].  [on_reply] sees the reply either
      way. *)

  val keep : 'a res -> Message.reply -> 'a res
  (** The parser of a call that answers [ok] whether or not it waits. *)

  val cannot_forward : 'a res
  (** [S.failure]: the [ok] of a call with outputs, which has nothing to
      answer if the plan forwards it. *)

  val ok_unit : int * Wire.value * Wire.value list
  val ok_ret : Wire.value -> Wire.value list -> int * Wire.value * Wire.value list

  val of_result :
    'a res -> ('a -> int * Wire.value * Wire.value list) ->
    int * Wire.value * Wire.value list
  (** Continue with the value, or reply with the error's status. *)

  val resolve : Server.Ctx.t -> int -> int
  (** Virtual id -> host handle; raises {!Server.Unknown_handle}. *)

  val resolve_list : Server.Ctx.t -> int list -> int list
end

(** {1 Live-state transfer} *)

(** A silo's live-object accessors: which recorded call allocates a
    transferable object ([alloc_fn], with its size at argument
    [size_arg]), how to drain the silo, and how to read and write an
    object's bytes ([write] returns the bytes written). *)
type 'st live = {
  alloc_fn : string;
  size_arg : int;
  quiesce : 'st -> unit;
  read : 'st -> host:int -> size:int -> bytes option;
  write : 'st -> host:int -> bytes -> int option;
}

val transfer :
  ?dma:Ava_device.Dma.t ->
  'st live ->
  vm_id:int ->
  src:'st Server.t ->
  dst:'st Server.t ->
  int
(** Move a VM's silo state from [src] to [dst] and return the snapshot
    and restore volume in bytes: flush the source's
    content store, re-point SVA (a VM with SVA armed on [src] resolves
    through the same IOMMU on [dst], charged to [dma], the destination
    device's DMA engine), quiesce the source silo, snapshot its live
    objects, hand the record log to [dst]'s entry
    ({!Server.hand_over_log}), replay it into [dst] re-binding each
    object to its original virtual id, then restore the snapshot.
    Replay goes through {!Server.execute_direct}, so it does not
    re-record itself.  Must run inside a simulation process. *)
