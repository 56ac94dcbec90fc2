(** Exporters over the {!Obs} registry.

    All outputs are deterministic functions of registry state, so each
    format can be golden-tested. *)

val prometheus : Obs.t -> string
(** Prometheus text exposition: [ava_call_phase_ns] and
    [ava_call_total_ns] histogram families (cumulative [le] buckets,
    [_sum], [_count]), span counters and the in-flight gauge.  When
    spans carry a pool device stamp, an [ava_device_exec_ns] family
    labelled [device="<id>"] is appended; without one the exposition is
    byte-identical to the pre-pool output. *)

val chrome_trace_string : Obs.t -> string
(** Chrome trace-event JSON built from retained spans: one complete
    ("X") event per phase segment, [pid] = VM, [tid] = lane (guest /
    wire / router / server), timestamps in microseconds.  Server-side
    segments of device-stamped spans get a per-device lane
    ([server-dev<id>], tid 10+id) instead of the shared server lane.
    Loadable in [chrome://tracing] and Perfetto. *)

val span_segments : Obs.span -> (Obs.phase * Ava_sim.Time.t * Ava_sim.Time.t) list
(** The (phase, start, stop) slices of a closed span — the same slicing
    that fed the histograms. *)

val json_of_summary : Hist.summary -> Json.t

val snapshot : Obs.t -> Json.t
(** Machine-readable registry snapshot: span counts, end-to-end total,
    per-phase breakdown, full per-(vm, api, phase) series. *)
