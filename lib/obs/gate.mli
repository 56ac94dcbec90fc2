(** Perf-gate comparison: bench JSON vs. a checked-in baseline.

    Flattens JSON into ["a/b/c"]-pathed numeric metrics (array elements
    named by their ["name"]/["phase"]/["workload"] member), gates only
    the lower-is-better latency subset (end-to-end ratios, per-phase
    p50/p95), and flags a regression when current exceeds
    [baseline × (1 + tolerance)] plus a small absolute noise floor on
    raw-nanosecond metrics. *)

val is_gated : string -> bool

type status = Ok | Regressed | New_metric | Missing_metric

type row = {
  r_path : string;
  r_base : float option;
  r_cur : float option;
  r_status : status;
}

type verdict = {
  v_rows : row list;  (** gated rows only *)
  v_regressions : int;
  v_compared : int;  (** gated metrics present in both documents *)
}

val compare_metrics :
  tolerance_pct:float -> baseline:Json.t -> current:Json.t -> verdict

val passed : verdict -> bool
(** True when no gated metric regressed.  New and missing metrics are
    reported but do not fail the gate (the baseline refresh workflow
    handles those). *)

val to_markdown : tolerance_pct:float -> verdict -> string
(** GitHub-flavoured markdown summary table, regressions first. *)

val inflate : pct:float -> Json.t -> Json.t
(** Copy of the document with every gated metric inflated by [pct]
    (plus a constant exceeding the noise floor) — the CI self-test
    feeds this back through {!compare_metrics} to prove the gate fails
    on a synthetically regressed result. *)
