"""Run-journal summarization (``repro trace summarize``).

Replays a JSONL run journal and answers the two questions an operator
asks first: *where did the time go* (slowest individual spans plus
per-name aggregates) and *what did the run actually do* (hottest
counters, histogram tails).  The output is a plain result object with
``rows()``, matching the analysis-layer idiom.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.obs.trace import SpanRecord

__all__ = ["JournalSummary", "aggregate_spans", "journal_run_seconds",
           "summarize_events"]


@dataclass(frozen=True)
class SpanAggregate:
    """Per-span-name rollup."""

    name: str
    count: int
    total_seconds: float
    max_seconds: float


@dataclass(frozen=True)
class JournalSummary:
    """What a run journal says the run did."""

    n_events: int
    n_spans: int
    run_seconds: float
    slowest: Tuple[SpanRecord, ...]
    aggregates: Tuple[SpanAggregate, ...]
    counters: Mapping[str, int] = field(default_factory=dict)
    histograms: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict)
    #: Live-telemetry samples found in the journal (0 when the run had
    #: no heartbeat sampler; see :mod:`repro.obs.telemetry`).
    n_heartbeats: int = 0
    #: Lineage capsules found in the journal (0 unless the run was
    #: executed with provenance; see :mod:`repro.obs.provenance`).
    n_provenance: int = 0

    def rows(self, top: int = 10) -> List[str]:
        """Human-readable report lines."""
        heartbeat = (f", {self.n_heartbeats} heartbeats"
                     if self.n_heartbeats else "")
        capsules = (f", {self.n_provenance} capsules"
                    if self.n_provenance else "")
        lines = [
            f"journal         {self.n_events} events, {self.n_spans} "
            f"spans{heartbeat}{capsules}, run {self.run_seconds:.2f}s",
        ]
        if self.slowest:
            lines.append("slowest spans")
            for span in self.slowest[:top]:
                detail = " ".join(
                    f"{k}={v}" for k, v in sorted(span.attrs.items()))
                lines.append(
                    f"  {span.name:<24} {span.duration:9.3f}s"
                    + (f"  {detail}" if detail else ""))
        if self.aggregates:
            lines.append("span totals")
            for agg in self.aggregates[:top]:
                lines.append(
                    f"  {agg.name:<24} {agg.total_seconds:9.3f}s"
                    f"  x{agg.count}  max {agg.max_seconds:.3f}s")
        if self.counters:
            lines.append("hottest counters")
            hottest = sorted(self.counters.items(),
                             key=lambda kv: (-kv[1], kv[0]))
            for key, value in hottest[:top]:
                lines.append(f"  {key:<40} {value}")
        if self.histograms:
            lines.append("histograms")
            for key, summary in sorted(self.histograms.items())[:top]:
                # Empty histograms report null percentiles (see
                # Histogram.summary); render the count alone.
                p50, p99 = summary.get("p50"), summary.get("p99")
                quantiles = ("  (no samples)" if p50 is None
                             else f"  p50={p50:.4f}  p99={p99:.4f}")
                lines.append(
                    f"  {key:<40} n={summary.get('count', 0)}"
                    + quantiles)
        return lines


def aggregate_spans(spans: Sequence[SpanRecord]) -> List[SpanAggregate]:
    """Per-name rollups, heaviest total first."""
    totals: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        totals[span.name].append(span.duration)
    return sorted(
        (SpanAggregate(name=name, count=len(durations),
                       total_seconds=sum(durations),
                       max_seconds=max(durations))
         for name, durations in totals.items()),
        key=lambda agg: -agg.total_seconds)


def journal_run_seconds(events: Sequence[Mapping[str, Any]]) -> float:
    """A journal's wall time: ``run_start`` to ``run_end``, or the
    extent of its spans when either marker is missing."""
    started = min((e.get("ts", 0.0) for e in events
                   if e.get("type") == "run_start"), default=None)
    ended = max((e.get("ts", 0.0) for e in events
                 if e.get("type") == "run_end"), default=None)
    if started is not None and ended is not None:
        return max(0.0, float(ended) - float(started))
    spans = [e for e in events if e.get("type") == "span"]
    if not spans:
        return 0.0
    return (max(float(e["start"]) + float(e["duration"]) for e in spans)
            - min(float(e["start"]) for e in spans))


def summarize_events(events: Sequence[Mapping[str, Any]]) -> JournalSummary:
    """Summarize replayed journal events (see :func:`.journal.read_journal`)."""
    spans = [SpanRecord.from_event(dict(e)) for e in events
             if e.get("type") == "span"]
    counters: Dict[str, int] = {}
    histograms: Dict[str, Mapping[str, Any]] = {}
    for event in events:
        # Snapshots are cumulative; the last one observed wins.
        if event.get("type") == "metrics":
            counters = dict(event.get("counters", {}))
            histograms = dict(event.get("histograms", {}))
    slowest = tuple(sorted(spans, key=lambda s: -s.duration))
    return JournalSummary(
        n_events=len(events),
        n_spans=len(spans),
        run_seconds=journal_run_seconds(events),
        slowest=slowest,
        aggregates=tuple(aggregate_spans(spans)),
        counters=counters,
        histograms=histograms,
        n_heartbeats=sum(
            1 for e in events if e.get("type") == "heartbeat"),
        n_provenance=sum(
            1 for e in events if e.get("type") == "provenance"),
    )
