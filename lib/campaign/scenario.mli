(** One campaign scenario: assemble a pooled AvA stack, interpret an
    operation trace over the simulated clock, quiesce, and check the
    fleet invariants.

    The interpreter is {e total}: an op whose tenant slot was never
    admitted (or already retired), whose device is dead, or which would
    strand the fleet (killing the last healthy device) is a recorded
    no-op.  Any subsequence of a trace is therefore a valid trace —
    the property seed shrinking relies on.  Runs are deterministic:
    every stochastic choice draws from streams split off
    [sc_seed]. *)

open Ava_sim

type config = {
  sc_devices : int;  (** pool size (>= 2 exercises migration) *)
  sc_placement : Ava_pool.Pool.placement;
  sc_sva : bool;  (** zero-copy data path armed *)
  sc_doorbell : bool;  (** doorbell coalescing on guest rings *)
  sc_batching : bool;  (** tenants' stubs batch async calls *)
  sc_cache : int;  (** transfer-cache capacity, 0 = off *)
  sc_faults : string;  (** initial link profile: ["none"] | ["light"] *)
  sc_seed : int64;  (** root of every in-run RNG stream *)
  sc_max_tenants : int;  (** admission cap *)
}

val default_config : config
(** 3 devices, round-robin, SVA, doorbells and cache armed, no
    batching, light faults, seed 42, 4 tenants. *)

val random_config : Rng.t -> config
(** A random point in the config cube (2-3 devices, placement, SVA /
    doorbell / batching / cache toggles, initial profile). *)

(** The fleet invariants, each checked after quiesce (residency also
    continuously, between ops). *)
type invariant =
  | No_crash  (** no unexpected exception escaped the stack *)
  | Deferred_errors
      (** each async failure a server executed is reported once, by the
          tenant's stub, no later than its next synchronous call *)
  | Seq_ledger  (** no lost or duplicated replies: every forwarded
                    call answered or acknowledged, no retry budget
                    exhausted *)
  | Accounting  (** the router charged no tenant for more calls than
                    its guest issued: retransmissions and resends are
                    charged once *)
  | Conservation  (** the pool counts as many retires as the scenario
                      made, and every live tenant is resident on
                      exactly the one device the pool's index names *)
  | Residency  (** retired tenants leave nothing behind: no pool
                   residency, server entry, router conn, IOMMU pin or
                   recorder *)
  | Isolation  (** tenants not targeted by device faults, not resident
                   on a killed device, complete correctly *)
  | Obs_twin  (** armed-obs run is bit-identical in virtual time to
                  the disarmed twin *)

val invariant_name : invariant -> string

type verdict =
  | Pass
  | Violation of invariant * string  (** which invariant, and how *)
  | Hang of string  (** quiesce deadline expired with work in flight *)

val pp_verdict : Format.formatter -> verdict -> unit

(** A deliberate break of the stack, for the self-test. *)
type sabotage =
  | Crash_worker
      (** a tenant's server worker is crashed mid-workload and never
          restarted *)
  | Overcharge  (** after the trace, one extra call is charged by hand *)
  | Lose_failures
      (** after the trace, a fresh tenant's server acknowledges its
          failed async calls as successes ({!Ava_remoting.Server.lose_failure_replies})
          while the tenant releases a buffer that does not exist *)

type outcome = {
  oc_verdict : verdict;
  oc_final_ns : Time.t;  (** virtual clock at the end of the run *)
  oc_executed : int;  (** calls executed across all servers *)
  oc_applied : int;  (** ops that were not no-ops *)
}

val run : ?obs:bool -> ?sabotage:sabotage -> config -> Op.trace -> outcome
(** Interpret the trace.  [obs] arms full latency attribution
    ({!Ava_obs.Obs}); the registry is passive, so the outcome must be
    bit-identical to a disarmed run — {!check_twin} enforces it.  It
    defaults to armed when [AVA_CAMPAIGN_TRACE] is set, and an armed
    run then dumps one stderr line per retained span, then each
    tenant's in-flight span count.
    [sabotage] deliberately breaks the stack after the trace to prove
    the invariant checks fire — the self-test of the campaign runner. *)

val check_twin : config -> Op.trace -> verdict
(** Run the trace disarmed and obs-armed; [Pass] iff final virtual
    time, executed count and verdict agree (else an {!Obs_twin}
    violation). *)
