"""Execution observability.

:class:`ExecStats` is the run report surfaced by ``repro run --stats``:
wall time per pipeline stage, cache hits and misses at shard
granularity, and the per-shard timing spread.  ``--stats --json`` emits
:meth:`ExecStats.as_dict` so benchmark trajectory files can track
executor performance across revisions.

The report has one producer: :meth:`ExecStats.from_obs` **derives** it
from the run's span tree and metrics registry — stage timings come from
the ``stage:*`` spans, shard timings from the ``exec.shard`` spans,
cache counters from the ``exec.cache.*`` counters, and the executor
shape from the curate-stage span attributes.  Nothing fills it in by
hand; a caller driving the executor directly runs it under an
activated session and a ``stage:curate`` span and derives the report
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.runtime import Observability

from repro.obs.telemetry import SHARDS_COMPLETED_COUNTER, \
    SHARDS_TOTAL_GAUGE

__all__ = ["ExecStats", "StageTiming", "publish_shard_done",
           "publish_shard_plan"]

#: Span-name prefix identifying pipeline stages in the span tree.
STAGE_PREFIX = "stage:"

#: Span name the executor gives each executed shard.
SHARD_SPAN = "exec.shard"


def publish_shard_plan(metrics: Any, total: int) -> None:
    """Publish the run's shard total to the progress series.

    The heartbeat sampler (:mod:`repro.obs.telemetry`) reads the
    ``exec.shards.*`` series to report completed/total and an ETA while
    the run is still going; cache-served shards count as completed via
    :func:`publish_shard_done` like any other.
    """
    metrics.gauge(SHARDS_TOTAL_GAUGE).set(float(total))


def publish_shard_done(metrics: Any, n: int = 1) -> None:
    """Count ``n`` shards as completed on the progress series."""
    if n:
        metrics.counter(SHARDS_COMPLETED_COUNTER).inc(n)


@dataclass
class StageTiming:
    """Wall time for one pipeline stage."""

    name: str
    seconds: float


@dataclass
class ExecStats:
    """What one pipeline run did and what it cost."""

    workers: int = 1
    backend: str = "serial"
    n_shards: int = 0
    stages: List[StageTiming] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    shard_seconds: Dict[int, float] = field(default_factory=dict)
    n_records: int = 0
    #: True when the merge proceeded without some countries because
    #: their sources kept failing (see :mod:`repro.resilience`).
    degraded: bool = False
    #: The countries the run gave up on, sorted.
    quarantined: Tuple[str, ...] = ()

    # -- recording --------------------------------------------------------------

    def add_stage(self, name: str, seconds: float) -> None:
        self.stages.append(StageTiming(name=name, seconds=seconds))

    def record_shard(self, index: int, seconds: float) -> None:
        self.shard_seconds[index] = seconds

    # -- derivation from the span tree -------------------------------------------

    @classmethod
    def from_obs(cls, obs: "Observability") -> "ExecStats":
        """Derive the execution report from an observability session.

        The session must cover one pipeline run: ``stage:*`` spans for
        the stage timings (ordered by start time), ``exec.shard`` spans
        for the per-shard spread, ``exec.cache.hits``/``.misses``
        counters, and the executor shape annotated on the curate-stage
        span by :class:`repro.exec.workers.ShardedCurationExecutor`.
        """
        stats = cls()
        spans = obs.tracer.spans()
        stage_spans = sorted(
            (s for s in spans if s.name.startswith(STAGE_PREFIX)),
            key=lambda s: s.start)
        for span in stage_spans:
            stats.add_stage(span.name[len(STAGE_PREFIX):], span.duration)
            if span.name == STAGE_PREFIX + "curate":
                stats.workers = int(span.attrs.get("workers", stats.workers))
                stats.backend = str(span.attrs.get("backend", stats.backend))
                stats.n_shards = int(
                    span.attrs.get("n_shards", stats.n_shards))
                stats.n_records = int(
                    span.attrs.get("n_records", stats.n_records))
                stats.degraded = bool(
                    span.attrs.get("degraded", stats.degraded))
                stats.quarantined = tuple(
                    span.attrs.get("quarantined", stats.quarantined))
        for span in spans:
            if span.name == SHARD_SPAN and "shard" in span.attrs:
                stats.record_shard(int(span.attrs["shard"]), span.duration)
        counters = obs.metrics.snapshot()["counters"]
        stats.cache_hits = int(counters.get("exec.cache.hits", 0))
        stats.cache_misses = int(counters.get("exec.cache.misses", 0))
        return stats

    # -- derived ----------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    @property
    def curate_skipped(self) -> bool:
        """Whether the observation+curation stage was fully cache-served."""
        return self.n_shards > 0 and self.cache_misses == 0

    @property
    def shard_skew(self) -> float:
        """Slowest shard over mean shard time (1.0 = perfectly even).

        Only shards that actually executed contribute; a fully
        cache-served run has no skew to report and returns 0.
        """
        if not self.shard_seconds:
            return 0.0
        times = list(self.shard_seconds.values())
        mean = sum(times) / len(times)
        if mean <= 0:
            return 0.0
        return max(times) / mean

    def perf_statistics(self) -> Dict[str, float]:
        """Flat perf metrics, keyed the way health checks and stored
        perf baselines expect (``perf.*`` / ``cache.*``).

        This is the bridge between the execution report and
        :mod:`repro.obs.health` / :mod:`repro.obs.baseline`: the same
        numbers that render in ``--stats`` feed the scorecard's budget
        checks and ``repro perf record``.
        """
        out: Dict[str, float] = {
            "perf.total_seconds": float(self.total_seconds),
        }
        for stage in self.stages:
            out[f"perf.stage_seconds.{stage.name}"] = float(stage.seconds)
        lookups = self.cache_hits + self.cache_misses
        out["cache.hit_rate"] = (self.cache_hits / lookups
                                 if lookups else 0.0)
        out["cache.hits"] = float(self.cache_hits)
        out["cache.misses"] = float(self.cache_misses)
        return out

    # -- rendering --------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable form (stable keys; used by ``--stats --json``)."""
        return {
            "workers": self.workers,
            "backend": self.backend,
            "n_shards": self.n_shards,
            "stages": {stage.name: round(stage.seconds, 6)
                       for stage in self.stages},
            "total_seconds": round(self.total_seconds, 6),
            "cache": {"hits": self.cache_hits,
                      "misses": self.cache_misses,
                      "curate_skipped": self.curate_skipped},
            "shards": {
                "executed": len(self.shard_seconds),
                "seconds": {str(k): round(v, 6)
                            for k, v in sorted(self.shard_seconds.items())},
                "skew": round(self.shard_skew, 4),
            },
            "n_records": self.n_records,
            "degraded": self.degraded,
            "quarantined": list(self.quarantined),
        }

    def rows(self) -> List[str]:
        """Human-readable report lines."""
        lines = [
            f"executor        {self.backend} x{self.workers} "
            f"({self.n_shards} shards)",
        ]
        for stage in self.stages:
            lines.append(f"stage {stage.name:<12} {stage.seconds:8.2f}s")
        lines.append(f"stage {'total':<12} {self.total_seconds:8.2f}s")
        lines.append(
            f"curation cache  {self.cache_hits} hits / "
            f"{self.cache_misses} misses"
            + ("  (stage skipped)" if self.curate_skipped else ""))
        if self.shard_seconds:
            slowest = max(self.shard_seconds.values())
            lines.append(
                f"shards executed {len(self.shard_seconds)}  "
                f"slowest {slowest:.2f}s  skew {self.shard_skew:.2f}x")
        lines.append(f"curated records {self.n_records}")
        if self.degraded:
            lines.append(
                f"DEGRADED        quarantined: "
                f"{', '.join(self.quarantined)}")
        return lines
