(** The silo kit: everything an AvA-generated silo does that does not
    depend on which API it virtualizes.

    A silo plugs in three things — its per-function table (guest
    wrappers and server handlers), its status <-> error mapping, and its
    live-object accessors ({!live}) — and gets guest-call finishing
    ({!Guest}), the handler prelude ({!Handler}) and the
    replay-and-rebind procedure behind every migration ({!transfer}). *)

module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Message = Ava_remoting.Message
module Migrate = Ava_remoting.Migrate
module Wire = Ava_remoting.Wire

(** {1 Guest side} *)

module type GUEST_STATUS = sig
  type error

  val of_code : int -> error
  (** The error a non-zero reply status (or deferred status) denotes. *)

  val failure : string -> error
  (** A local failure: no plan for the call, or a reply the guest cannot
      read. *)
end

module Guest (S : GUEST_STATUS) : sig
  val sync :
    Stub.t ->
    fn:string ->
    args:Wire.value list ->
    (Message.reply -> ('a, S.error) result) ->
    ('a, S.error) result
  (** Forward synchronously and parse the reply.  A pending deferred
      async error outranks the call's own result; a parse that raises
      {!Server.Bad_args} (see {!out}) yields [S.failure]. *)

  val fire :
    ?on_reply:(Message.reply -> unit) ->
    Stub.t ->
    fn:string ->
    args:Wire.value list ->
    'a ->
    ('a, S.error) result
  (** Forward as the plan says; an asynchronous forward returns the
      given value at once and reports failure through the deferred-error
      channel (§4.2). *)

  val out : Message.reply -> int -> Wire.value
  (** The [n]th out-parameter; raises {!Server.Bad_args} (turned into
      [S.failure] by {!sync}) when the reply is short. *)

  val ret_unit : Message.reply -> (unit, S.error) result

  val ret_out :
    (Wire.value -> 'a) -> int -> Message.reply -> ('a, S.error) result
  (** [ret_out conv n]: the [n]th out-parameter decoded by [conv]. *)

  val ret_handle : Message.reply -> (int, S.error) result
  (** The returned handle, range-checked: a value outside the native int
      range is [S.failure], never a wrapped id. *)
end

(** {1 Handler side} *)

type reply = int * Wire.value * Wire.value list
(** A handler's (status, return value, out-values). *)

module Handler (S : sig
  type error

  val to_code : error -> int
end) : sig
  val ok_unit : reply
  val ok_ret : Wire.value -> Wire.value list -> reply

  val of_result : ('a, S.error) result -> ('a -> reply) -> reply
  (** Continue with the value, or reply with the error's status. *)

  val resolve : Server.Ctx.t -> int -> int
  (** Virtual id -> host handle; raises {!Server.Unknown_handle}, which
      the server turns into a counted rejection. *)

  val resolve_list : Server.Ctx.t -> int list -> int list

  val on_handle :
    ('st -> int -> (unit, S.error) result) ->
    Server.Ctx.t ->
    'st ->
    Wire.value list ->
    reply
  (** The commonest handler: one handle argument, resolved and passed to
      the call; a unit reply. *)

  val bind_fresh : Server.Ctx.t -> host:int -> int
  (** Bind a freshly created host object to a new virtual id. *)
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

type moved = {
  replayed : int;  (** record-log entries re-executed *)
  restored : int;  (** objects whose bytes were written back *)
  bytes : int;  (** snapshot + restore volume *)
}

val transfer :
  ?dma:Ava_device.Dma.t ->
  'st live ->
  vm_id:int ->
  src:'st Server.t ->
  dst:'st Server.t ->
  moved
(** Move a VM's silo state from [src] to [dst]: flush the source's
    content store, re-point SVA (a VM with SVA armed on [src] resolves
    through the same IOMMU on [dst], charged to [dma], the destination
    device's DMA engine), quiesce the source silo, snapshot its live
    objects, hand the record log to [dst]'s entry
    ({!Server.hand_over_log}), replay it into [dst] re-binding each
    object to its original virtual id, then restore the snapshot.
    Replay goes through {!Server.execute_direct}, so it does not
    re-record itself.  Must run inside a simulation process. *)
