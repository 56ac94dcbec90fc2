(* Deterministic fault injection for transports.

   Wraps the two ends of a {!Transport} link with seeded, RNG-driven
   drop/duplicate/corrupt/delay faults.  Every injected message is framed
   with a 64-bit checksum ({!Hash64}); the receive side verifies and strips
   it, so corruption is detected and surfaces as loss — exactly how a
   checksummed real transport (ethernet CRC, TCP) degrades.  Recovery is
   then the remoting layer's job: {!Ava_remoting.Stub} retransmits by
   seq and {!Ava_remoting.Server} replays duplicates idempotently.

   Faults are off by default (an unwrapped endpoint runs the historical
   hook-free transport path, bit-identical in timing); all randomness
   draws from one explicit seed, so a faulty run replays exactly. *)

open Ava_sim

type config = {
  drop_p : float;  (** per-message probability the message vanishes *)
  duplicate_p : float;  (** probability the message is delivered twice *)
  corrupt_p : float;  (** probability one byte is flipped in flight *)
  delay_p : float;  (** probability of extra in-flight latency *)
  max_delay_ns : Time.t;  (** uniform extra latency bound *)
}

let none =
  { drop_p = 0.0; duplicate_p = 0.0; corrupt_p = 0.0; delay_p = 0.0;
    max_delay_ns = 0 }

(* A modest lossy-link profile within the chaos-suite envelope (drop and
   corrupt probability <= 1%). *)
let light =
  { drop_p = 0.01; duplicate_p = 0.005; corrupt_p = 0.01; delay_p = 0.02;
    max_delay_ns = Time.us 50 }

type stats = {
  mutable sealed_msgs : int;  (** messages that crossed the fault layer *)
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable delayed : int;
  mutable checksum_rejects : int;  (** corrupt frames caught on receive *)
}

type t = {
  rng : Rng.t;
  mutable config : config;
  stats : stats;
  mutable on_loss : (bytes array -> unit) option;
}

let create ~seed config =
  {
    rng = Rng.create seed;
    config;
    stats =
      { sealed_msgs = 0; dropped = 0; duplicated = 0; corrupted = 0;
        delayed = 0; checksum_rejects = 0 };
    on_loss = None;
  }

let stats t = t.stats
let set_loss_hook t f = t.on_loss <- Some f
let lost t msg = match t.on_loss with Some f -> f msg | None -> ()

(* Flip the fault profile live.  The RNG stream and the checksum
   envelope are untouched — only the probabilities the next draws are
   compared against change — so a run that flips profiles at fixed
   virtual instants replays exactly under the same seed. *)
let set_config t config = t.config <- config

(* --- checksum envelope -------------------------------------------------- *)

(* The envelope is flat: the message's segments are copied in behind
   the checksum, which covers their concatenation.  That copy is the
   one a sealed message makes. *)
let seal segs =
  let len = Transport.length segs in
  let framed = Bytes.create (8 + len) in
  ignore
    (Array.fold_left
       (fun pos seg ->
         Bytes.blit seg 0 framed pos (Bytes.length seg);
         pos + Bytes.length seg)
       8 segs);
  Bytes.set_int64_be framed 0 (Hash64.sub framed ~pos:8 ~len);
  framed

(* Verify in place; only a frame that checks out is copied out. *)
let unseal framed =
  let len = Bytes.length framed - 8 in
  if len < 0 then None
  else if
    Int64.equal (Bytes.get_int64_be framed 0) (Hash64.sub framed ~pos:8 ~len)
  then Some (Bytes.sub framed 8 len)
  else None

(* --- hooks ---------------------------------------------------------------- *)

(* Flip one byte in place.  The frame is the fresh buffer [seal] just
   built — the fault layer owns it exclusively, so cloning the whole
   frame first (as this used to) only burned an allocation per
   corrupted message.  Draw order (position, then flip mask) is
   unchanged, so same-seed runs replay identically. *)
let corrupt t framed =
  let pos = Rng.int t.rng (Bytes.length framed) in
  let flip = 1 + Rng.int t.rng 255 in
  Bytes.set framed pos
    (Char.chr (Char.code (Bytes.get framed pos) lxor flip));
  framed

let send_hook t msg =
  let s = t.stats and c = t.config in
  s.sealed_msgs <- s.sealed_msgs + 1;
  if Rng.float t.rng < c.drop_p then begin
    s.dropped <- s.dropped + 1;
    lost t msg;
    []
  end
  else begin
    let framed = seal msg in
    let framed =
      if Rng.float t.rng < c.corrupt_p then begin
        s.corrupted <- s.corrupted + 1;
        lost t msg;
        corrupt t framed
      end
      else framed
    in
    let extra =
      if Rng.float t.rng < c.delay_p && c.max_delay_ns > 0 then begin
        s.delayed <- s.delayed + 1;
        Rng.uniform_ns t.rng ~lo:0 ~hi:c.max_delay_ns
      end
      else 0
    in
    let first = { Transport.d_payload = [| framed |]; d_extra_ns = extra } in
    if Rng.float t.rng < c.duplicate_p then begin
      s.duplicated <- s.duplicated + 1;
      [ first; first ]
    end
    else [ first ]
  end

(* A sealed message is one segment; anything else fails the check. *)
let recv_hook t msg =
  match if Array.length msg = 1 then unseal msg.(0) else None with
  | Some payload -> Some [| payload |]
  | None ->
      t.stats.checksum_rejects <- t.stats.checksum_rejects + 1;
      None

(* Wrap one endpoint: its sends are faulted, its receives verified. *)
let wrap_endpoint t ep =
  Transport.set_send_hook ep (Some (send_hook t));
  Transport.set_recv_hook ep (Some (recv_hook t))

(* Wrap both ends of a link.  Must happen before any traffic flows: the
   checksum envelope applies to every subsequent message in both
   directions. *)
let wrap t (a, b) =
  wrap_endpoint t a;
  wrap_endpoint t b
