"""repro.obs — structured observability for the pipeline.

A dependency-free observability subsystem with three coordinated parts:

- **Span tracing** (:mod:`repro.obs.trace`): hierarchical, monotonic
  spans with attributes, nested through per-thread stacks and grafted
  home from :mod:`repro.exec` and :mod:`repro.stream` process workers
  (each returns one :class:`~repro.obs.runtime.WorkerReport`, which
  the parent grafts in with :meth:`Observability.adopt`), so worker
  spans appear under the run's root span.
- **Metrics** (:mod:`repro.obs.metrics`): counters, gauges, and
  fixed-bucket histograms with percentile summaries, incremented from
  the hot paths (curation, matching, KIO compilation, the cache store,
  RNG substream derivation) and mergeable across process workers.
- **Run journal** (:mod:`repro.obs.journal`): a streamed JSONL record
  of every span close and metrics snapshot, replayable by ``repro trace
  summarize`` (:mod:`repro.obs.summary`) and exportable as a Chrome
  ``trace_event`` JSON (:mod:`repro.obs.export`) for
  ``chrome://tracing`` / Perfetto.

On top of the session, three health/performance layers
(:mod:`repro.obs.profile`, :mod:`repro.obs.health`,
:mod:`repro.obs.baseline`):

- **Span profiling**: an opt-in per-span resource profiler (wall vs
  CPU seconds, peak-RSS growth, optional tracemalloc allocation
  deltas) whose readings ride in span attributes and stream into the
  journal as ``profile`` events.
- **Health scorecard**: every run is graded ``pass``/``warn``/``fail``
  against paper-fidelity and budget targets; the report lands in the
  journal as a ``health`` event and replays via ``repro health``.
- **Perf baselines**: ``repro perf record/compare/report`` stores
  named perf+fidelity snapshots under ``benchmarks/baselines/`` and
  fails CI on any config or fidelity drift; wall seconds ride along
  as trend data.

Instrumentation is **zero-cost when disabled**: library code records
into :func:`current`, which returns a no-op session unless a run has
:func:`activate`\\ d a real :class:`Observability`.  Recording never
touches the RNG substreams, so enabling observability cannot perturb
results — serial/parallel byte-identity holds with tracing on.
"""

from repro.obs.baseline import BASELINE_DIR, BaselineComparison, \
    PerfBaseline, compare_baselines, list_baselines, load_baseline, \
    save_baseline, trajectory_rows
from repro.obs.export import chrome_trace, escape_label_value, \
    snapshot_to_openmetrics, split_series_key, unescape_label_value, \
    write_chrome_trace
from repro.obs.health import CheckResult, HealthCheck, HealthPolicy, \
    HealthReport, default_policy, evaluate_run, run_statistics
from repro.obs.journal import JOURNAL_VERSION, RunJournal, iter_journal, \
    read_journal
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, \
    NullMetrics, series_key
from repro.obs.profile import ProfileConfig, SpanProfiler
from repro.obs.provenance import DrawCursor, ExplainReport, \
    ProvenanceDiff, ProvenanceError, ProvenanceRecorder, capsule_id_for, \
    capsules_in, diff_provenance, explain_record, record_manifest, \
    sorted_capsules
from repro.obs.registry import RunRecord, RunRegistry, run_id_for
from repro.obs.runtime import NULL_OBS, Observability, activate, current
from repro.obs.summary import JournalSummary, aggregate_spans, \
    summarize_events
from repro.obs.telemetry import HeartbeatSampler, TelemetryConfig, \
    parse_interval
from repro.obs.trace import NullTracer, Span, SpanRecord, Tracer
from repro.obs.tracediff import PathDelta, TraceDiff, diff_events, \
    span_path_seconds

__all__ = [
    "BASELINE_DIR",
    "BaselineComparison",
    "CheckResult",
    "Counter",
    "DrawCursor",
    "ExplainReport",
    "Gauge",
    "HealthCheck",
    "HealthPolicy",
    "HealthReport",
    "HeartbeatSampler",
    "Histogram",
    "JOURNAL_VERSION",
    "JournalSummary",
    "MetricsRegistry",
    "NULL_OBS",
    "NullMetrics",
    "NullTracer",
    "Observability",
    "PathDelta",
    "PerfBaseline",
    "ProfileConfig",
    "ProvenanceDiff",
    "ProvenanceError",
    "ProvenanceRecorder",
    "RunJournal",
    "RunRecord",
    "RunRegistry",
    "Span",
    "SpanProfiler",
    "SpanRecord",
    "TelemetryConfig",
    "TraceDiff",
    "Tracer",
    "activate",
    "aggregate_spans",
    "capsule_id_for",
    "capsules_in",
    "chrome_trace",
    "compare_baselines",
    "current",
    "default_policy",
    "diff_events",
    "diff_provenance",
    "escape_label_value",
    "explain_record",
    "evaluate_run",
    "iter_journal",
    "list_baselines",
    "load_baseline",
    "parse_interval",
    "read_journal",
    "record_manifest",
    "run_id_for",
    "run_statistics",
    "save_baseline",
    "series_key",
    "snapshot_to_openmetrics",
    "sorted_capsules",
    "span_path_seconds",
    "split_series_key",
    "summarize_events",
    "trajectory_rows",
    "unescape_label_value",
    "write_chrome_trace",
]
