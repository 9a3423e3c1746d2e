(** Mv_obs: metrics, spans and progress for the whole flow.

    A process-global telemetry registry that every engine in the
    repository reports into: counters ([Atomic]-backed, safe to bump
    from pool domains), gauges, histograms with fixed log-scale
    buckets and quantile estimation, bounded series (per-iteration
    values such as solver residuals, decimated deterministically once
    they outgrow a cap) and monotonic-clock spans with parent nesting
    and per-request tagging.

    Everything is disabled by default and costs one atomic load per
    operation; [mval --metrics/--trace/--progress], [mvald] and the
    bench harness call {!enable} up front. Recording operations never
    allocate metric storage when disabled — handles are created
    eagerly by {!counter} & friends (get-or-create by name), which
    keeps the hot paths to an array/atomic update.

    Exporters: {!metrics_json} (machine-readable snapshot,
    round-trippable through {!Json}), {!trace_json} (Chrome
    trace-event format, loadable by [chrome://tracing] or
    [https://ui.perfetto.dev]), {!summary} (human text) and
    {!headlines} (curated key figures for {!Mv_core.Report}-style
    display). OpenMetrics text exposition lives in {!Openmetrics};
    structured logging in {!Log}. The metric catalogue is documented
    in doc/observability.md. *)

(** {1 Clock} *)

module Clock : sig
  (** Monotonic (non-decreasing across all domains) wall-clock
      nanoseconds. Backed by [Unix.gettimeofday] clamped through a
      single process-global lock-free CAS-max, so concurrent domains
      can never observe the clock moving backwards relative to a
      reading taken on any other domain. *)
  val now_ns : unit -> int64

  (** Seconds elapsed since [t0] (a {!now_ns} reading). *)
  val elapsed_s : int64 -> float
end

(** {1 Lifecycle} *)

(** Turn recording on. Idempotent. *)
val enable : unit -> unit

val is_enabled : unit -> bool

(** Drop every metric, span, open-span stack and request context and
    disable recording (for tests and for the bench harness between
    experiments). A span still open across a reset is dropped when it
    closes instead of recording a dangling parent into the fresh
    registry. *)
val reset : unit -> unit

(** {1 Request context}

    The id of the request currently being served on the calling
    domain. Spans opened (and {!Log} events emitted) while a context
    is set are tagged with it; [Mv_serve.Server] installs the context
    around request execution. *)

(** [with_request rid f] runs [f ()] with the calling domain's request
    context set to [rid], restoring the previous context afterwards
    (also on exceptions). *)
val with_request : string -> (unit -> 'a) -> 'a

val set_request : string option -> unit
val current_request : unit -> string option

(** {1 Metrics} *)

type counter
type gauge
type histogram
type series

(** Get-or-create by name. Two calls with one name return the same
    metric; one name must keep one kind (a kind clash raises
    [Invalid_argument]). *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** Histograms bucket positive values into fixed base-2 log-scale
    buckets: bucket [i] holds values in [[2^(i-31), 2^(i-30))] for
    [0 < i < 62]; bucket [0] collects everything below (including
    non-positive values) and bucket [62] everything above. *)
val histogram : string -> histogram

val observe : histogram -> float -> unit

(** [bucket_of v] / [bucket_lt i] / [bucket_ge i]: the bucket index a
    value lands in, a bucket's exclusive upper bound ([infinity] for
    the last) and its inclusive lower bound ([0.] for the first). *)
val bucket_of : float -> int

val bucket_lt : int -> float
val bucket_ge : int -> float

(** [quantile h q] estimates the [q]-quantile ([0. <= q <= 1.]) of the
    observed distribution: the bucket holding the [ceil(q*count)]-th
    smallest observation is located exactly from the bucket counts,
    then the value is linearly interpolated between the bucket bounds
    (tightened by the recorded min/max). Estimates are monotone in [q]
    and always land inside the exact sample quantile's bucket. [nan]
    when the histogram is empty. *)
val quantile : histogram -> float -> float

(** A consistent locked snapshot of one histogram: count, sum,
    min/max, and the non-empty buckets as [(bucket index, count)]
    pairs in ascending bucket order. *)
type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (int * int) list;
}

val histogram_snapshot : histogram -> histogram_snapshot

(** Registry-wide snapshots (name-sorted), for exporters such as
    {!Openmetrics}. *)
val all_counters : unit -> (string * int) list

val all_gauges : unit -> (string * float) list
val all_histograms : unit -> (string * histogram_snapshot) list

(** A series records successive values (e.g. one residual per solver
    iteration). The retained shape is deterministic: all values are
    kept until the cap (4096), then every other retained point is
    dropped and the sampling stride doubles — so a series always holds
    value [0], then every [stride]-th pushed value. *)
val series : string -> series

val push : series -> float -> unit

(** [(total pushed, stride, retained values in push order)]. *)
val series_values : series -> int * int * float list

(** {1 Spans} *)

type span = {
  sp_id : int;
  sp_parent : int option; (** id of the enclosing span, same domain *)
  sp_name : string;
  sp_domain : int; (** [Domain.self] of the recording domain *)
  sp_pid : int; (** trace process lane: 1 local, 2 ingested remote *)
  sp_request : string option; (** request context at open time *)
  sp_start_ns : int64;
  sp_dur_ns : int64;
  sp_args : (string * Json.t) list;
}

(** [span name f] runs [f ()] inside a timed span. Nesting is tracked
    per domain: a span opened while another is open on the same domain
    records it as its parent. The span is recorded even when [f]
    raises, and tagged with the current request context. When disabled
    this is just [f ()]. *)
val span : ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

(** Completed spans, in completion order. Retention is bounded: only
    the most recent 32768 completions are kept (a long-running daemon
    would otherwise leak). *)
val spans : unit -> span list

(** Completed spans tagged with request id [rid]. *)
val spans_for_request : string -> span list

(** Total recorded seconds of completed spans named [name]. *)
val span_total_s : string -> float

(** {1 Span interchange}

    How a daemon ships the spans of one request back to the client so
    both sides land in a single Chrome trace ("mv-trace-spans-v1"). *)

val trace_spans_schema : string

(** Encode a span list as [{"schema": "mv-trace-spans-v1", "spans":
    [..]}] with absolute nanosecond timestamps. *)
val spans_json : span list -> Json.t

(** Re-record spans received from a peer under trace pid 2 (the
    "remote" lane). Both ends share the machine wall clock, so the
    absolute timestamps line up with locally recorded spans. Malformed
    entries are skipped; no-op when disabled. *)
val ingest_spans : Json.t -> unit

(** {1 Progress} *)

(** [set_progress true] turns on live progress reporting: {!progress}
    calls then repaint a single stderr line (rate-limited to ~5 Hz).
    Call {!progress_end} before printing normal output so the line is
    terminated. *)
val set_progress : bool -> unit

val progress_enabled : unit -> bool

(** [progress f] — when progress is on and the rate limiter allows,
    prints [f ()] as the live status line. [f] is not called
    otherwise. Safe to call from pool domains. *)
val progress : (unit -> string) -> unit

(** Terminate the live line (no-op when none was printed). *)
val progress_end : unit -> unit

(** {1 Process gauges} *)

(** Peak resident set size of the process so far, in kilobytes
    (getrusage [ru_maxrss] — a monotone high-water mark, never a
    current reading). Works without {!enable}. *)
val maxrss_kb : unit -> int

(** Refresh the [process.maxrss_kb] gauge from {!maxrss_kb}. Called
    automatically by {!metrics_json} and the OpenMetrics exposition,
    so every exported snapshot carries the peak at snapshot time. *)
val refresh_process_gauges : unit -> unit

(** {1 Exporters} *)

(** The schema tag of {!metrics_json} ("mv-obs-metrics-v1"), exposed
    for [mval version] and the serve protocol's version report. *)
val metrics_schema : string

(** Snapshot of every metric plus per-span-name aggregate timings:
    [{"schema": "mv-obs-metrics-v1", "counters": {..}, "gauges": {..},
    "histograms": {..}, "series": {..}, "timings": {..}}], keys
    sorted. Histogram entries include estimated [p50]/[p90]/[p99].
    Round-trips through {!Json.of_string}. *)
val metrics_json : unit -> Json.t

(** Chrome trace-event JSON: [{"traceEvents": [..]}] with one complete
    ("ph": "X") event per span, timestamps in microseconds relative to
    the first span, [pid] the span's trace lane (1 local, 2 remote)
    and the request id in [args]. Load in [chrome://tracing] or
    Perfetto. *)
val trace_json : unit -> Json.t

(** Human-readable multi-line dump of the registry (sorted). *)
val summary : unit -> string

(** Curated key figures (states explored, states/s, solver iterations
    and residual, DES events ...) for headline display; only metrics
    that were actually recorded appear. *)
val headlines : unit -> (string * string) list
