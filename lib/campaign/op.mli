(** Campaign operations: the vocabulary of randomized fleet scenarios.

    A trace is a list of delayed operations over an assembled pooled
    AvA stack — tenant admission and retirement, Rodinia-shaped work,
    live migration, device loss, rebalancing, per-VM server outages,
    live fault-profile flips, plus side-silo work on the NC and QA
    stacks (each tenant slot lazily gets its own guests there).  Traces are generated from an explicit
    seed, interpreted totally (an op whose reference is no longer valid
    is a no-op, so any subsequence of a valid trace is valid — the
    property the shrinker relies on), and serialized to a stable text
    format for the regression corpus. *)

(** What a [Submit] runs.  [Vec_add n] is the reference correctness
    program (upload two [n]-int32 vectors, add on the device, verify
    the sums on readback); [Bench name] is a Rodinia benchmark by
    name. *)
type workload = Vec_add of int | Bench of string

(** Operations refer to tenants by {e slot} — the 0-based index of the
    [Admit] that created them — not by VM id, so dropping an [Admit]
    during shrinking turns later references into no-ops instead of
    retargeting them. *)
type kind =
  | Admit  (** admit a new tenant (no-op at the tenant cap) *)
  | Retire of int  (** retire slot, if live and idle *)
  | Submit of int * workload  (** run a workload on slot's API *)
  | Migrate of int * int  (** live-migrate slot to device *)
  | Kill_device of int  (** lose the device, if another survives *)
  | Rebalance  (** one explicit skew-rebalance step *)
  | Crash of int * int
      (** crash slot's server worker; restart and requeue after the
          given virtual outage (ns) *)
  | Flip_faults of string  (** switch every link's fault profile *)
  | Swap_pressure of int * int
      (** churn the given number of one-shot 256 KiB buffers on slot's
          API (write, read back, verify, release) — memory pressure
          against the swap / transfer-cache layers *)
  | Quota_exhaust of int
      (** clamp slot's device-time quota to a near-zero budget, then
          run the reference workload through it: the router must
          throttle, never wedge or reject *)
  | Submit_nc of int * int
      (** run one MVNC inference (a tensor of the given byte size) on
          slot's side-silo NCS guest — the NC stack is fault-free, so
          any error or wrong-size output is an isolation violation *)
  | Submit_qa of int * int
      (** run one SimQA compress/decompress roundtrip (payload of the
          given KiB) on slot's side-silo QAT guest; a roundtrip
          mismatch counts as a wrong result *)

type op = { delay_ns : int;  (** virtual delay before the op *) kind : kind }
type trace = op list

(** {1 Generation} *)

type genconfig = {
  g_devices : int;  (** pool size the trace will run against *)
  g_max_tenants : int;  (** admission cap *)
  g_length : int;  (** ops to generate *)
}

val gen : Ava_sim.Rng.t -> genconfig -> trace
(** A weighted random trace: heavy on submits, seasoned with
    admission/retirement churn, migration, device loss, outages and
    profile flips.  Pure in the RNG — same state, same trace. *)

(** {1 Corpus serialization} *)

val to_line : op -> string
(** One op as one line ([op <delay_ns> <kind> ...]). *)

val of_line : string -> (op, string) result
(** Parse one [op] line; [Error] describes the malformation. *)
