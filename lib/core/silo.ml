(* The silo kit: everything an AvA-generated silo does that does not
   depend on which API it virtualizes.

   A silo (SimCL, MVNC, SimQA, SimST) brings three things: its
   per-function table (the guest wrappers in [*_remote], the handlers in
   [*_handlers]), its status <-> error mapping, and its live-object
   accessors.  This module supplies the rest: finishing a guest call,
   the handler prelude, and the replay-and-rebind procedure behind every
   migration. *)

module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Message = Ava_remoting.Message
module Migrate = Ava_remoting.Migrate
module Wire = Ava_remoting.Wire
module Iommu = Ava_device.Iommu

(* --- guest side --------------------------------------------------------- *)

module type GUEST_STATUS = sig
  type error

  val of_code : int -> error
  val failure : string -> error
end

module Guest (S : GUEST_STATUS) = struct
  (* A reply the parse cannot read (short out list, mistyped value) is
     the silo's failure, never an exception escaping into the guest. *)
  let parse_reply parse reply =
    match parse reply with
    | r -> r
    | exception Server.Bad_args -> Error (S.failure "malformed reply")

  (* Deferred async errors outrank the current call's result. *)
  let sync stub ~fn ~args parse =
    match Stub.invoke_sync stub ~fn ~args with
    | Error msg -> Error (S.failure msg)
    | Ok reply -> (
        match Stub.take_deferred_error stub with
        | Some (_fn, code) -> Error (S.of_code code)
        | None ->
            if reply.Message.reply_status <> 0 then
              Error (S.of_code reply.Message.reply_status)
            else parse_reply parse reply)

  (* An asynchronously forwarded call returns [ok] at once (§4.2); its
     failure surfaces at the next synchronous call. *)
  let fire ?on_reply stub ~fn ~args ok =
    match Stub.invoke ?on_reply stub ~fn ~args with
    | Error msg -> Error (S.failure msg)
    | Ok None -> Ok ok
    | Ok (Some reply) ->
        (* The plan judged this invocation synchronous after all. *)
        if reply.Message.reply_status <> 0 then
          Error (S.of_code reply.Message.reply_status)
        else Ok ok

  let out (reply : Message.reply) n =
    match List.nth_opt reply.Message.reply_outs n with
    | Some v -> v
    | None -> raise Server.Bad_args

  let ret_unit (_ : Message.reply) = Ok ()

  (* The [n]th out-parameter, decoded by [conv]. *)
  let ret_out conv n reply = Ok (conv (out reply n))

  (* Range-checked: a handle that does not fit a native int is a
     marshalling error, not a silently wrapped id. *)
  let ret_handle (reply : Message.reply) =
    match reply.Message.reply_ret with
    | Wire.Handle _ as v -> (
        match Wire.to_int v with
        | Some n -> Ok n
        | None -> Error (S.failure "handle out of int range"))
    | _ -> Error (S.failure "expected handle return")
end

(* --- handler side ------------------------------------------------------- *)

type reply = int * Wire.value * Wire.value list

module Handler (S : sig
  type error

  val to_code : error -> int
end) =
struct
  let ok_unit : reply = (0, Wire.Unit, [])
  let ok_ret ret outs : reply = (0, ret, outs)
  let of_result r k : reply =
    match r with Ok v -> k v | Error e -> (S.to_code e, Wire.Unit, [])

  (* Unknown ids raise into {!Server.classify_exn}, which owns the
     status and the rejection count. *)
  let resolve ctx v =
    match Server.Ctx.resolve ctx v with
    | Some h -> h
    | None -> raise Server.Unknown_handle

  let resolve_list ctx vs = List.map (resolve ctx) vs

  (* The commonest handler shape: one handle in, nothing out. *)
  let on_handle f ctx st args =
    match args with
    | [ v ] -> of_result (f st (resolve ctx (Codec.to_h v))) (fun () -> ok_unit)
    | _ -> raise Server.Bad_args

  (* Bind a freshly created host object to a new virtual id. *)
  let bind_fresh ctx ~host =
    let vid = Server.Ctx.fresh ctx in
    Server.Ctx.bind ctx ~guest:vid ~host;
    vid
end

(* --- live-state transfer ------------------------------------------------ *)

type 'st live = {
  alloc_fn : string;
  size_arg : int;
  quiesce : 'st -> unit;
  read : 'st -> host:int -> size:int -> bytes option;
  write : 'st -> host:int -> bytes -> int option;
}

type moved = { replayed : int; restored : int; bytes : int }

(* Live allocations still in a record log, with their sizes recovered
   from the recorded arguments. *)
let live_objects live log =
  List.filter_map
    (fun (r : Migrate.recorded) ->
      if String.equal r.Migrate.rc_fn live.alloc_fn then
        match
          (r.Migrate.rc_primary, List.nth_opt r.Migrate.rc_args live.size_arg)
        with
        | Some vid, Some (Wire.I64 size) -> Some (vid, Int64.to_int size)
        | _ -> None
      else None)
    (Migrate.replay_log log)

let transfer ?dma live ~vm_id ~src ~dst =
  let require = function
    | Some x -> x
    | None -> invalid_arg "Silo.transfer: vm not attached"
  in
  let src_ctx = require (Server.vm_ctx src ~vm_id) in
  let src_state = require (Server.vm_state src ~vm_id) in
  let log = require (Server.recorder src ~vm_id) in
  (* A fresh destination context would re-mint ids the replay is about
     to re-bind originals onto; reserve the source's whole range first. *)
  Server.Ctx.reserve (require (Server.vm_ctx dst ~vm_id))
    (Server.Ctx.next_vid src_ctx);
  (* The content store belongs to the source front-end; the guest's
     stale refs heal through the cache-miss NAK/resend path. *)
  Server.flush_cache src ~vm_id;
  (* SVA: the guest's pinned regions survive (its memory didn't move),
     but the source device's cached translations must die and resolution
     must re-point at the destination device — one batched shootdown,
     then every region refaults on first access from the new device. *)
  (match (Server.sva_for src ~vm_id, dma) with
  | Some (iommu, _), Some dma ->
      Iommu.quiesce iommu;
      Server.clear_sva src ~vm_id;
      Server.set_sva dst ~vm_id ~iommu ~dma
  | _ -> ());
  (* Work the source device already accepted writes its outputs only at
     completion: snapshot before that and the destination inherits stale
     bytes.  Drain the silo's queues first. *)
  live.quiesce src_state;
  let bytes = ref 0 in
  let snapshot =
    List.filter_map
      (fun (vid, size) ->
        match Server.Ctx.resolve src_ctx vid with
        | None -> None
        | Some host ->
            Option.map
              (fun data ->
                bytes := !bytes + size;
                (vid, data))
              (live.read src_state ~host ~size))
      (live_objects live log)
  in
  (* From here the destination entry records the VM's live calls; the
     replay below runs unrecorded. *)
  Server.hand_over_log src ~into:dst ~vm_id;
  let dst_ctx = require (Server.vm_ctx dst ~vm_id) in
  let dst_state = require (Server.vm_state dst ~vm_id) in
  let replayed = ref 0 in
  List.iter
    (fun (r : Migrate.recorded) ->
      ignore
        (Server.execute_direct dst ~vm_id
           {
             Message.call_seq = 0;
             call_vm = vm_id;
             call_fn = r.Migrate.rc_fn;
             call_args = r.Migrate.rc_args;
           });
      incr replayed;
      (* Re-bind the re-created object to its original virtual id. *)
      match (r.Migrate.rc_class, r.Migrate.rc_primary) with
      | Ava_spec.Ast.Object_alloc, Some orig_vid -> (
          let fresh_vid = Server.Ctx.last_fresh dst_ctx in
          if fresh_vid <> orig_vid then
            match Server.Ctx.resolve dst_ctx fresh_vid with
            | Some host ->
                Server.Ctx.forget dst_ctx fresh_vid;
                Server.Ctx.bind dst_ctx ~guest:orig_vid ~host
            | None -> ())
      | _ -> ())
    (Migrate.replay_log log);
  let restored = ref 0 in
  List.iter
    (fun (vid, data) ->
      match Server.Ctx.resolve dst_ctx vid with
      | None -> ()
      | Some host -> (
          match live.write dst_state ~host data with
          | Some n ->
              bytes := !bytes + n;
              incr restored
          | None -> ()))
    snapshot;
  { replayed = !replayed; restored = !restored; bytes = !bytes }
