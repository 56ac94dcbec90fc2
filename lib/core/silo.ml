(* The silo kit: everything an AvA-generated silo does that does not
   depend on which API it virtualizes.

   A silo (SimCL, MVNC, SimQA, SimST) declares each API function once:
   its wire layout, one slot per C parameter in declaration order (so
   the router can check argument counts against the plan), with
   out-parameters as placeholders that come back in the reply's out
   list.  The kit derives the guest wrapper and the server handler from
   that declaration, and supplies the replay-and-rebind procedure behind
   every migration. *)

module Stub = Ava_remoting.Stub
module Server = Ava_remoting.Server
module Message = Ava_remoting.Message
module Migrate = Ava_remoting.Migrate
module Wire = Ava_remoting.Wire
module Iommu = Ava_device.Iommu

(* --- wire values ---------------------------------------------------------- *)

let i n = Wire.int n
let h x = Wire.Handle (Int64.of_int x)
let u = Wire.Unit
let b bytes = Wire.Blob bytes
let l handles = Wire.List (List.map h handles)

(* Range-checked: an [I64]/[Handle] outside the native [int] range is a
   marshalling error, never a silent wrap.  [Server.Bad_args] is a
   counted rejection at the server and the silo's failure at the guest. *)
let to_i v = match Wire.to_int v with Some n -> n | None -> raise Server.Bad_args
let to_b = function Wire.Blob x -> x | _ -> raise Server.Bad_args
let to_l = function Wire.List vs -> List.map to_i vs | _ -> raise Server.Bad_args

let out (reply : Message.reply) n =
  match List.nth_opt reply.Message.reply_outs n with
  | Some v -> v
  | None -> raise Server.Bad_args

(* --- declarations --------------------------------------------------------- *)

type 'a enum = ('a * int) list

(* Enums are constant constructors: physical equality is their identity. *)
let rec code_of t v =
  match t with
  | (x, c) :: rest -> if x == v then c else code_of rest v
  | [] -> invalid_arg "Silo: value missing from its enum"

let rec of_code t n =
  match t with
  | (x, c) :: rest -> if c = n then x else of_code rest n
  | [] -> raise Server.Bad_args

type _ form =
  | Handle : int form
  | Raw : int form
  | Int : int form
  | Flag : int -> bool form
  | Enum : 'a enum -> 'a form
  | Blob : bytes form
  | Str : string form
  | Handles : int list form
  | Coded : ('a -> bytes) * (bytes -> 'a) -> 'a form
  | Sized : 'a form -> 'a form
  | Counted : 'a form -> 'a form

type ('a, 'b, 'c, 'd, 'e, 'f) slot =
  | A of 'a form | B of 'b form | C of 'c form
  | D of 'd form | E of 'e form | F of 'f form
  | Out
  | Const of Wire.value

type _ returns =
  | Done : unit returns
  | Fresh : Wire.value list -> int returns
  | Ret : 'r form -> 'r returns

type ('a, 'b, 'c, 'd, 'e, 'f, 'r) fn = {
  name : string;
  slots : ('a, 'b, 'c, 'd, 'e, 'f) slot list;
  returns : 'r returns;
  width : int;
  parse : 'err. ('r, 'err) result -> Message.reply -> ('r, 'err) result;
      (** made once per declaration, so a guest call makes no parser *)
}

type 'r fn0 = (unit, unit, unit, unit, unit, unit, 'r) fn
type ('a, 'r) fn1 = ('a, unit, unit, unit, unit, unit, 'r) fn
type ('a, 'b, 'r) fn2 = ('a, 'b, unit, unit, unit, unit, 'r) fn
type ('a, 'b, 'c, 'r) fn3 = ('a, 'b, 'c, unit, unit, unit, 'r) fn

let name d = d.name

(* A form's wire values, and which of them holds the value. *)
let form_width : type x. x form -> int = function
  | Sized _ | Counted _ -> 2
  | _ -> 1

let value_at : type x. x form -> int = function Counted _ -> 1 | _ -> 0

let slot_width = function
  | A f -> form_width f
  | B f -> form_width f
  | C f -> form_width f
  | D f -> form_width f
  | E f -> form_width f
  | F f -> form_width f
  | Out | Const _ -> 1

let rec value : type x. x form -> x -> Wire.value =
 fun form x ->
  match form with
  | Handle -> h x
  | Raw -> h x
  | Int -> i x
  | Flag bits -> i (if x then bits else 0)
  | Enum t -> i (code_of t x)
  | Blob -> b x
  | Str -> b (Bytes.of_string x)
  | Handles -> l x
  | Coded (enc, _) -> b (enc x)
  | Sized f | Counted f -> value f x

let length = function
  | Wire.Blob x -> Bytes.length x
  | Wire.List vs -> List.length vs
  | _ -> invalid_arg "Silo: only blobs and lists have a length"

(* Cons a parameter's wire values onto [tail]. *)
let put : type x. x form -> x -> Wire.value list -> Wire.value list =
 fun form x tail ->
  match form with
  | Sized f ->
      let v = value f x in
      v :: i (length v) :: tail
  | Counted f ->
      let v = value f x in
      i (length v) :: v :: tail
  | f -> value f x :: tail

(* The request: exactly the list a hand-written wrapper would build. *)
let rec build slots a b c d e f =
  match slots with
  | [] -> []
  | A x :: rest -> put x a (build rest a b c d e f)
  | B x :: rest -> put x b (build rest a b c d e f)
  | C x :: rest -> put x c (build rest a b c d e f)
  | D x :: rest -> put x d (build rest a b c d e f)
  | E x :: rest -> put x e (build rest a b c d e f)
  | F x :: rest -> put x f (build rest a b c d e f)
  | Out :: rest -> u :: build rest a b c d e f
  | Const v :: rest -> v :: build rest a b c d e f

let rec read : type x. x form -> Wire.value -> x =
 fun form v ->
  match form with
  | Handle -> to_i v
  | Raw -> to_i v
  | Int -> to_i v
  | Flag bits -> to_i v land bits <> 0
  | Enum t -> of_code t (to_i v)
  | Blob -> to_b v
  | Str -> Bytes.to_string (to_b v)
  | Handles -> to_l v
  | Coded (_, dec) -> dec (to_b v)
  | Sized f | Counted f -> read f v

exception Malformed of string

(* A reply the guest cannot read raises [Server.Bad_args], or [Malformed]
   for a returned handle. *)
let parse_returns : type r e. r returns -> Message.reply -> (r, e) result =
 fun returns reply ->
  match returns with
  | Done -> Ok ()
  | Fresh _ -> (
      (* Range-checked: a handle that does not fit a native int is a
         marshalling error, not a silently wrapped id. *)
      match reply.Message.reply_ret with
      | Wire.Handle _ as v -> (
          match Wire.to_int v with
          | Some n -> Ok n
          | None -> raise (Malformed "handle out of int range"))
      | _ -> raise (Malformed "expected handle return"))
  | Ret f -> Ok (read f (out reply (value_at f)))

let declare name slots returns =
  let width = List.fold_left (fun n s -> n + slot_width s) 0 slots in
  let parse _ reply = parse_returns returns reply in
  { name; slots; returns; width; parse }

(* Where a parameter's value sits in the frame, and its form. *)
let locate pick slots =
  let rec go n = function
    | [] -> invalid_arg "Silo: parameter missing from its slots"
    | s :: rest -> (
        match pick s with
        | Some f -> (n + value_at f, f)
        | None -> go (n + slot_width s) rest)
  in
  go 0 slots

let pick_a = function A f -> Some f | _ -> None
let pick_b = function B f -> Some f | _ -> None
let pick_c = function C f -> Some f | _ -> None
let pick_d = function D f -> Some f | _ -> None
let pick_e = function E f -> Some f | _ -> None
let pick_f = function F f -> Some f | _ -> None

(* --- guest wrappers and server handlers ----------------------------------- *)

module Make (S : sig
  type error

  val of_code : int -> error
  val to_code : error -> int
  val failure : string -> error

  type state
  type api

  val api : state -> api
end) =
struct
  (* A reply the parse cannot read (short out list, mistyped value,
     unknown enum code) is the silo's failure, never an exception
     escaping into the guest. *)
  let parse_reply parse ok reply =
    match parse ok reply with
    | r -> r
    | exception Server.Bad_args -> Error (S.failure "malformed reply")
    | exception Malformed msg -> Error (S.failure msg)

  (* The plan decides whether the call waits.  A forwarded call answers
     [ok] at once, and its failure surfaces at the next waited call
     (§4.2).  A waited call answers a pending deferred error first,
     then its own status, then [parse ok reply].  [ok] comes in as a
     result so a constant one costs no allocation per call. *)
  let call ?on_reply stub ~fn ~args ok parse =
    match Stub.invoke ?on_reply stub ~fn ~args with
    | Stub.Forwarded -> ok
    | Stub.No_plan msg -> Error (S.failure msg)
    | Stub.Replied reply -> (
        match Stub.take_deferred_error stub with
        | Some (_fn, code) -> Error (S.of_code code)
        | None ->
            if reply.Message.reply_status <> 0 then
              Error (S.of_code reply.Message.reply_status)
            else parse_reply parse ok reply)

  let keep ok _ = ok

  (* An async function's outputs reach the guest only by a deferred
     reply or a guest-assigned id (§4.2), which no declaration states,
     so a declared function with outputs that the plan forwards has
     nothing to answer. *)
  let cannot_forward = Error (S.failure "forwarded call has outputs")

  let run : type a b c d e f r.
      Stub.t -> (a, b, c, d, e, f, r) fn -> Wire.value list -> (r, S.error) result =
   fun stub d args ->
    let ok : (r, S.error) result =
      match d.returns with Done -> Ok () | _ -> cannot_forward
    in
    call stub ~fn:d.name ~args ok d.parse

  let call0 stub d () = run stub d (build d.slots () () () () () ())
  let call1 stub d a = run stub d (build d.slots a () () () () ())
  let call2 stub d a b = run stub d (build d.slots a b () () () ())
  let call3 stub d a b c = run stub d (build d.slots a b c () () ())
  let call6 stub d a b c d' e f = run stub d (build d.slots a b c d' e f)

  let ok_unit = (0, Wire.Unit, [])
  let ok_ret ret outs = (0, ret, outs)

  let of_result r k =
    match r with Ok v -> k v | Error e -> (S.to_code e, Wire.Unit, [])

  (* Unknown ids raise into {!Server.classify_exn}, which owns the
     status and the rejection count. *)
  let resolve ctx v =
    match Server.Ctx.find ctx v with
    | h -> h
    | exception Not_found -> raise Server.Unknown_handle

  let resolve_list ctx vs = List.map (resolve ctx) vs

  let rec decode : type x. Server.Ctx.t -> x form -> Wire.value -> x =
   fun ctx form v ->
    match form with
    | Handle -> resolve ctx (to_i v)
    | Handles -> resolve_list ctx (to_l v)
    | Sized f | Counted f -> decode ctx f v
    | f -> read f v

  let arg ctx (n, form) args = decode ctx form (List.nth args n)

  let answer : type r. r returns -> Server.Ctx.t -> (r, S.error) result -> _ =
   fun returns ctx r ->
    match r with
    | Error e -> (S.to_code e, Wire.Unit, [])
    | Ok v -> (
        match returns with
        | Done -> ok_unit
        | Fresh outs ->
            (* Bind the freshly created host object to a new virtual id. *)
            let vid = Server.Ctx.fresh ctx in
            Server.Ctx.bind ctx ~guest:vid ~host:v;
            (0, h vid, outs)
        | Ret f -> (0, i 0, put f v []))

  (* --- the table --- *)

  let entries = ref []
  let installs = ref []
  let functions () = List.rev !entries
  let register server = List.iter (fun install -> install server) !installs

  let by_hand name handler =
    entries := (name, None) :: !entries;
    installs := (fun server -> Server.register server name (handler server)) :: !installs;
    name

  (* The width check comes first: a [User_rpc] guest reaches the server
     without the router's arity check. *)
  let serve d run =
    entries := (d.name, Some d.width) :: !entries;
    let handler ctx st args =
      if List.compare_length_with args d.width <> 0 then raise Server.Bad_args;
      answer d.returns ctx (run ctx st args)
    in
    installs := (fun server -> Server.register server d.name handler) :: !installs;
    d

  let fn0 name slots returns f =
    let d = declare name slots returns in
    serve d (fun _ st _ -> f (S.api st))

  let fn1 name slots returns f =
    let d = declare name slots returns in
    let pa = locate pick_a slots in
    serve d (fun ctx st args -> f (S.api st) (arg ctx pa args))

  let on_handle name f = fn1 name [ A Handle ] Done f

  let fn2 name slots returns f =
    let d = declare name slots returns in
    let pa = locate pick_a slots and pb = locate pick_b slots in
    serve d (fun ctx st args -> f (S.api st) (arg ctx pa args) (arg ctx pb args))

  let fn3 name slots returns f =
    let d = declare name slots returns in
    let pa = locate pick_a slots and pb = locate pick_b slots in
    let pc = locate pick_c slots in
    serve d (fun ctx st args ->
        f (S.api st) (arg ctx pa args) (arg ctx pb args) (arg ctx pc args))

  let fn6 name slots returns f =
    let d = declare name slots returns in
    let pa = locate pick_a slots and pb = locate pick_b slots in
    let pc = locate pick_c slots and pd = locate pick_d slots in
    let pe = locate pick_e slots and pf = locate pick_f slots in
    serve d (fun ctx st args ->
        f (S.api st) (arg ctx pa args) (arg ctx pb args) (arg ctx pc args)
          (arg ctx pd args) (arg ctx pe args) (arg ctx pf args))
end

(* --- live-state transfer ------------------------------------------------ *)

type 'st live = {
  alloc_fn : string;
  size_arg : int;
  quiesce : 'st -> unit;
  read : 'st -> host:int -> size:int -> bytes option;
  write : 'st -> host:int -> bytes -> int option;
}

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
  List.iter
    (fun (vid, data) ->
      match Server.Ctx.resolve dst_ctx vid with
      | None -> ()
      | Some host -> (
          match live.write dst_state ~host data with
          | Some n -> bytes := !bytes + n
          | None -> ()))
    snapshot;
  !bytes
