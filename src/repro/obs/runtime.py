"""The observability session and its ambient installation.

An :class:`Observability` object bundles the three pieces of
:mod:`repro.obs` — span tracer, metrics registry, and (optionally) a
JSONL run journal — for one pipeline run.  Library code never receives
it explicitly; it asks :func:`current` for whatever session is active
and records into that.  By default the active session is
:data:`NULL_OBS`, whose tracer and registry are no-ops, so instrumented
hot paths cost one module-global read when observability is off.

:func:`activate` installs a session for the duration of a ``with``
block; the active session is a plain process-wide global.

Process workers cannot record into the parent's session.  The parent
ships its picklable :meth:`Observability.worker_settings`; the worker
runs its task through :func:`run_reported`, which builds a worker-local
session from them and returns everything it collected as one
:class:`WorkerReport` — spans, a metrics snapshot, heartbeats and
provenance capsules.  The parent grafts the report in with
:meth:`Observability.adopt`.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, \
    TypeVar, Union

from repro.obs.journal import RunJournal
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.profile import ProfileConfig, SpanProfiler
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.telemetry import HeartbeatSampler, TelemetryConfig
from repro.obs.trace import NullTracer, Span, SpanRecord, Tracer

__all__ = ["NULL_OBS", "Observability", "WorkerReport", "WorkerSettings",
           "activate", "current", "run_reported"]

T = TypeVar("T")


@dataclass(frozen=True)
class WorkerSettings:
    """The parent session's settings a worker-local session copies."""

    profile: Optional[ProfileConfig] = None
    telemetry: Optional[TelemetryConfig] = None
    provenance: bool = False


@dataclass(frozen=True)
class WorkerReport:
    """What one worker task's local session collected (picklable)."""

    spans: Tuple[SpanRecord, ...] = ()
    metrics: Optional[Dict[str, Any]] = None
    heartbeats: Tuple[Dict[str, Any], ...] = ()
    capsules: Tuple[Dict[str, Any], ...] = ()


class Observability:
    """One run's tracer + metrics + (optional) journal/profiler/sampler."""

    enabled = True

    def __init__(self, *, journal: Optional[Union[RunJournal, str]] = None,
                 profile: Optional[Union[ProfileConfig, bool]] = None,
                 telemetry: Optional[Union[TelemetryConfig, float,
                                           str]] = None):
        if journal is not None and not isinstance(journal, RunJournal):
            journal = RunJournal(journal)
        self.journal = journal
        self.tracer = Tracer(on_close=self._on_span_close)
        self.metrics = MetricsRegistry()
        self.profile: Optional[ProfileConfig] = None
        if profile:
            self.enable_profiling(
                profile if isinstance(profile, ProfileConfig) else None)
        self.telemetry: Optional[TelemetryConfig] = None
        self._sampler: Optional[HeartbeatSampler] = None
        #: Heartbeats collected when no journal is attached — how
        #: process workers buffer samples for the parent to adopt.
        self.heartbeats: list = []
        #: Lineage-capsule recorder; ``None`` until
        #: :meth:`enable_provenance`, so instrumented decision points
        #: pay one attribute check when the feature is off.
        self.provenance: Optional[ProvenanceRecorder] = None
        if telemetry is not None:
            self.enable_telemetry(TelemetryConfig.coerce(telemetry))
        self._finished = False

    def enable_profiling(self, config: Optional[ProfileConfig] = None
                         ) -> "Observability":
        """Attach a per-span resource profiler to the session tracer.

        Idempotent; subsequent calls replace the profiler config.  Must
        be called before the run opens its spans to profile all of them.
        """
        self.profile = config if config is not None else ProfileConfig()
        if self.tracer.profiler is not None:
            self.tracer.profiler.uninstall()
        self.tracer.profiler = SpanProfiler(self.profile).install()
        return self

    # -- telemetry ---------------------------------------------------------------

    def enable_telemetry(self, config: Optional[TelemetryConfig] = None
                         ) -> "Observability":
        """Arm the heartbeat sampler (started by :meth:`start_telemetry`).

        Also turns on the tracer's open-span registry so heartbeats can
        report what the run is doing.  Idempotent; a later call
        replaces the config of a sampler that has not started yet.
        """
        self.telemetry = config if config is not None else TelemetryConfig()
        self.tracer.track_open = True
        return self

    def start_telemetry(self) -> Optional[HeartbeatSampler]:
        """Start the armed sampler (no-op without a telemetry config).

        Heartbeats stream into the run journal when one is attached;
        otherwise they buffer in :attr:`heartbeats` (the process-worker
        path, shipped home in the :class:`WorkerReport`).
        """
        if self.telemetry is None:
            return None
        if self._sampler is None:
            sink = (self.journal.write if self.journal is not None
                    else self.heartbeats.append)
            self._sampler = HeartbeatSampler(
                self.telemetry, tracer=self.tracer, metrics=self.metrics,
                sink=sink)
        return self._sampler.start()

    def stop_telemetry(self) -> None:
        """Stop the sampler, emitting its final heartbeat (idempotent)."""
        if self._sampler is not None:
            self._sampler.stop()

    # -- provenance --------------------------------------------------------------

    def enable_provenance(self) -> "Observability":
        """Attach a lineage-capsule recorder to the session (idempotent).

        Capsules stream into the run journal when one is attached and
        always buffer on the recorder, so ``RunResult.provenance`` works
        without a journal.  Recording is journal-only: pipeline event
        output is byte-identical with provenance on or off.
        """
        if self.provenance is None:
            self.provenance = ProvenanceRecorder(journal=self.journal)
        return self

    # -- workers -----------------------------------------------------------------

    def worker_settings(self) -> WorkerSettings:
        """What a worker-local session needs to record like this one."""
        return WorkerSettings(profile=self.profile,
                              telemetry=self.telemetry,
                              provenance=self.provenance is not None)

    def adopt(self, report: Optional[WorkerReport],
              parent_id: Optional[int] = None) -> None:
        """Graft a worker's report into this session.

        Spans get fresh ids under ``parent_id`` (``Tracer.adopt``),
        metrics merge (``MetricsRegistry.merge``: counters add, gauges
        last-write), heartbeats go to the journal when one is attached
        and onto :attr:`heartbeats` otherwise, and capsules join the
        provenance recorder (``ProvenanceRecorder.adopt``), enabled on
        first arrival.  All of it is journal-only: pipeline event
        output never changes.
        """
        if report is None:
            return
        self.tracer.adopt(report.spans, parent_id)
        if report.metrics:
            self.metrics.merge(report.metrics)
        for event in report.heartbeats:
            if self.journal is not None:
                self.journal.write(event)
            else:
                self.heartbeats.append(event)
        if report.capsules:
            self.enable_provenance().provenance.adopt(report.capsules)

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, *, parent: Optional[int] = None,
             **attrs: Any) -> Span:
        """Open a span on the session tracer (context manager)."""
        return self.tracer.span(name, parent=parent, **attrs)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the calling thread's innermost open span."""
        span = self.tracer.current_span()
        if span is not None:
            span.set_attrs(**attrs)

    def _on_span_close(self, record: SpanRecord) -> None:
        if self.journal is None:
            return
        self.journal.write(record.as_event())
        # Profiled spans additionally stream a dedicated ``profile``
        # event, so resource trails can be filtered without replaying
        # every span.  Spans adopted from process workers pass through
        # here too, profile attributes and all.
        readings = record.attrs.get("profile")
        if readings:
            self.journal.write({
                "type": "profile",
                "span_id": record.span_id,
                "name": record.name,
                "duration": round(record.duration, 6),
                "worker": record.worker,
                "profile": readings,
            })

    # -- results -----------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The registry snapshot (``--metrics-json`` payload)."""
        return self.metrics.snapshot()

    def finish(self) -> None:
        """Seal the session: final metrics snapshot + journal footer.

        Idempotent; the tracer and registry remain readable afterwards.
        """
        if self._finished:
            return
        self._finished = True
        if self.tracer.profiler is not None:
            self.tracer.profiler.uninstall()
        if self.journal is not None:
            snapshot = self.metrics.snapshot()
            snapshot["type"] = "metrics"
            self.journal.write(snapshot)
            self.journal.close({"n_spans": len(self.tracer.spans())})


class _NullObservability:
    """The always-off session; the module default."""

    enabled = False

    def __init__(self) -> None:
        self.tracer = NullTracer()
        self.metrics = NullMetrics()
        self.journal = None
        self.profile = None
        self.telemetry = None
        self.heartbeats: list = []
        self.provenance = None

    def span(self, name: str, *, parent: Optional[int] = None,
             **attrs: Any):
        return self.tracer.span(name)

    def annotate(self, **attrs: Any) -> None:
        return None

    def enable_telemetry(self, config: Any = None) -> "_NullObservability":
        return self

    def start_telemetry(self) -> None:
        return None

    def stop_telemetry(self) -> None:
        return None

    def enable_provenance(self) -> "_NullObservability":
        return self

    def worker_settings(self) -> None:
        return None

    def adopt(self, report: Any, parent_id: Optional[int] = None) -> None:
        return None

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.metrics.snapshot()

    def finish(self) -> None:
        return None


#: The disabled session served by :func:`current` outside any run.
NULL_OBS = _NullObservability()

_active: Union[Observability, _NullObservability] = NULL_OBS


def _forget_parent_session() -> None:
    global _active
    _active = NULL_OBS


# A forked worker starts outside any session: the one it inherited
# belongs to the parent (its journal handle, and locks the parent's
# sampler thread may have held at the fork).
os.register_at_fork(after_in_child=_forget_parent_session)


def current() -> Union[Observability, _NullObservability]:
    """The active observability session (the no-op one by default)."""
    return _active


@contextlib.contextmanager
def activate(obs: Observability) -> Iterator[Observability]:
    """Install ``obs`` as the active session for the ``with`` block.

    Sessions are installed process-wide (see module docstring); nested
    activations restore the previous session on exit.
    """
    global _active
    previous = _active
    _active = obs
    try:
        yield obs
    finally:
        _active = previous


def run_reported(settings: Optional[WorkerSettings],
                 task: Callable[[], T]) -> Tuple[T, Optional[WorkerReport]]:
    """Run a worker's ``task``; return its result and its report.

    With the parent's ``settings`` the task runs under a worker-local
    session configured from them (sampling heartbeats while it runs)
    and the session's :class:`WorkerReport` rides home beside the
    result.  Without them (the parent records nothing) the task runs
    under the worker's ambient session and the report is ``None``.
    """
    if settings is None:
        return task(), None
    local = Observability(profile=settings.profile,
                          telemetry=settings.telemetry)
    if settings.provenance:
        local.enable_provenance()
    with activate(local):
        local.start_telemetry()
        try:
            result = task()
        finally:
            local.stop_telemetry()
    return result, WorkerReport(
        spans=tuple(local.tracer.spans()),
        metrics=local.metrics.snapshot(),
        heartbeats=tuple(local.heartbeats),
        capsules=(tuple(local.provenance.capsules)
                  if local.provenance is not None else ()))
