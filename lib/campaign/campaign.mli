(** The campaign runner: a budgeted loop of randomized scenarios with
    violation shrinking and a replayable regression corpus.

    Each iteration derives an independent RNG stream from the campaign
    seed, draws a random stack configuration and op trace, runs the
    scenario and checks the fleet invariants; every [twin_every]-th
    clean iteration additionally re-runs the trace with observability
    armed and demands a bit-identical outcome.  A violating trace is
    shrunk ({!Shrink.minimize}) to a minimal reproducer under the
    same-invariant oracle and, when [corpus_dir] is given, recorded as
    a corpus file that {!replay} (and the regression suite) can run
    back deterministically. *)

type violation_report = {
  vr_iteration : int;
  vr_config : Scenario.config;
  vr_invariant : string;
  vr_detail : string;  (** detail of the original (unshrunk) verdict *)
  vr_trace : Op.trace;  (** the shrunk reproducer *)
  vr_original_len : int;  (** op count before shrinking *)
  vr_file : string option;  (** corpus path, when recorded *)
}

type summary = {
  cs_seed : int64;
  cs_budget : int;
  cs_iterations : int;  (** iterations actually run *)
  cs_applied : int;  (** ops applied across all iterations *)
  cs_twin_checks : int;
  cs_violations : violation_report list;  (** oldest first *)
}

val run :
  ?log:(string -> unit) ->
  ?corpus_dir:string ->
  ?twin_every:int ->
  ?max_ops:int ->
  seed:int64 ->
  budget:int ->
  unit ->
  summary
(** Run [budget] iterations.  [twin_every] (default 16) paces the
    armed-obs twin runs; [max_ops] (default 30) bounds generated trace
    length; the campaign ends early once five violations have been
    recorded; [log] receives one progress line per event (violations,
    shrink results). *)

val summary_json : summary -> Ava_obs.Json.t
(** Deterministic JSON rollup (for the CI artifact). *)

(** {1 Corpus} *)

val save :
  path:string ->
  config:Scenario.config ->
  invariant:string ->
  detail:string ->
  Op.trace ->
  unit
(** Write one corpus file (stable text format, see [test/corpus/]). *)

val load :
  string -> (Scenario.config * string * Op.trace, string) result
(** Parse a corpus file back into (config, recorded invariant name,
    trace).  A config key the file omits keeps its
    {!Scenario.default_config} value, so a file older than the
    [batching] key loads unbatched. *)

val replay : string -> (Scenario.outcome, string) result
(** [load] then run — the regression path: a corpus file recorded
    against a since-fixed bug must replay to [Pass]. *)

(** {1 Self-test} *)

val self_test :
  ?seed:int64 -> unit -> (Scenario.sabotage * Scenario.outcome) list
(** Run a small healthy trace once per sabotage ({!Scenario.sabotage}:
    a worker crashed mid-workload and never restarted; one call
    charged twice).  Each verdict must be {!caught}; one that is not
    means the harness is blind and its green campaigns are
    worthless. *)

val caught : Scenario.sabotage -> Scenario.verdict -> bool
(** Whether the verdict shows the sabotage was detected: any non-[Pass]
    verdict for [Crash_worker], an [Accounting] violation for
    [Overcharge]. *)
