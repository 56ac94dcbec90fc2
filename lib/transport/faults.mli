(** Deterministic fault injection for transports.

    Wraps the two ends of a {!Transport} link with seeded, RNG-driven
    drop/duplicate/corrupt/delay faults.  Injected messages are framed
    with a 64-bit checksum; the receive side verifies and strips it, so
    corruption is detected and surfaces as loss (as on a checksummed
    real link).  Recovery belongs to the remoting layer: the stub
    retransmits by seq, the server replays duplicates idempotently.

    Faults are off by default — an unwrapped endpoint runs the
    historical transport path, bit-identical in timing — and all
    randomness draws from one explicit seed, so faulty runs replay
    exactly. *)

open Ava_sim

type config = {
  drop_p : float;  (** per-message probability the message vanishes *)
  duplicate_p : float;  (** probability the message is delivered twice *)
  corrupt_p : float;  (** probability one byte is flipped in flight *)
  delay_p : float;  (** probability of extra in-flight latency *)
  max_delay_ns : Time.t;  (** uniform extra latency bound *)
}

val none : config
(** All probabilities zero (the checksum envelope is still applied). *)

val light : config
(** A modest lossy-link profile: 1% drop, 1% corrupt, 0.5% duplicate,
    2% delayed by up to 50 µs. *)

type stats = {
  mutable sealed_msgs : int;  (** messages that crossed the fault layer *)
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable delayed : int;
  mutable checksum_rejects : int;  (** corrupt frames caught on receive *)
}

type t

val create : seed:int64 -> config -> t
val stats : t -> stats

val set_loss_hook : t -> (bytes array -> unit) -> unit
(** Install a function that sees each message the layer drops or
    corrupts, as its sender handed it over (the frame, unsealed), so a
    test can tell which losses needed a resend.  At most one hook; a
    later one replaces it. *)

val set_config : t -> config -> unit
(** Flip the fault profile live (scenario campaigns).  The seeded RNG
    stream and the checksum envelope are untouched, so same-seed runs
    that flip at the same virtual instants replay exactly. *)

val wrap : t -> Transport.endpoint * Transport.endpoint -> unit
(** Install fault hooks on both ends of a link.  Must happen before any
    traffic flows: the checksum envelope applies to every subsequent
    message in both directions. *)

(**/**)

val seal : bytes array -> bytes
(** The flat envelope: the checksum of the segments' concatenation,
    then that concatenation. *)

val unseal : bytes -> bytes option
(** The payload of an envelope that checks out, as one fresh segment.
    Exposed for tests. *)
