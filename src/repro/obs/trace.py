"""Hierarchical span tracing.

A :class:`Tracer` records what a run did as a tree of *spans* — named,
timed intervals with attributes.  Spans are opened as context managers
and nest through a per-thread stack, so instrumented code never passes
span handles around:

    with tracer.span("stage:curate"):
        with tracer.span("curate.country", country="SY"):
            ...

Work in a process worker records into its own tracer, and the parent
:meth:`Tracer.adopt`\\ s the returned records — remapping span ids so the
child tree grafts under the parent's current span without collisions.

Timing uses the monotonic :func:`time.perf_counter` anchored once to the
wall clock, so span starts are comparable across workers while durations
never go backwards.  The :class:`NullTracer` is the disabled twin: every
call is a cheap no-op, which is what makes library-level instrumentation
free when no observability session is active.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["NullTracer", "Span", "SpanRecord", "Tracer"]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: the unit the journal and exporters consume."""

    span_id: int
    parent_id: Optional[int]
    name: str
    #: Wall-clock start (seconds since the epoch, monotonic within a run).
    start: float
    #: Wall-clock duration in seconds.
    duration: float
    #: ``"<pid>/<thread name>"`` of the worker that ran the span.
    worker: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_event(self) -> Dict[str, Any]:
        """The span's journal-event form (JSON-serializable)."""
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "worker": self.worker,
            "attrs": self.attrs,
        }

    @classmethod
    def from_event(cls, event: Dict[str, Any]) -> "SpanRecord":
        """Rebuild a record from its journal event (see :mod:`.journal`)."""
        return cls(
            span_id=int(event["span_id"]),
            parent_id=(int(event["parent_id"])
                       if event.get("parent_id") is not None else None),
            name=str(event["name"]),
            start=float(event["start"]),
            duration=float(event["duration"]),
            worker=str(event.get("worker", "?")),
            attrs=dict(event.get("attrs", {})),
        )


class Span:
    """An open span; closes (and is recorded) when the ``with`` exits."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "attrs",
                 "_start_perf", "_start_wall", "_profile", "_path",
                 "duration")

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: Optional[int], name: str,
                 attrs: Dict[str, Any]):
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self._start_perf = 0.0
        self._start_wall = 0.0
        self._profile = None
        self._path: Optional[str] = None
        self.duration = 0.0

    def set_attrs(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (last write per key wins)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        profiler = self._tracer.profiler
        if profiler is not None:
            self._profile = profiler.begin()
        self._start_perf = time.perf_counter()
        self._start_wall = self._tracer.wall(self._start_perf)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start_perf
        profiler = self._tracer.profiler
        if profiler is not None and self._profile is not None:
            readings = profiler.end(self._profile)
            if readings:
                self.attrs["profile"] = readings
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)


class _NullSpan:
    """The do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()
    duration = 0.0

    def set_attrs(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a run's span tree; safe to use from many threads."""

    enabled = True

    def __init__(self, on_close: Optional[Callable[[SpanRecord], None]]
                 = None):
        self._on_close = on_close
        #: Optional :class:`repro.obs.profile.SpanProfiler`; when set,
        #: every span samples resource counters on enter/exit.
        self.profiler = None
        #: When True, the tracer maintains a registry of currently-open
        #: span paths (``run/stage:curate/exec.shard``) so the
        #: heartbeat sampler (:mod:`repro.obs.telemetry`) can report
        #: what the run is doing *right now*.  Off by default: the span
        #: hot path pays only this boolean check.
        self.track_open = False
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._records: List[SpanRecord] = []
        self._open: Dict[int, str] = {}
        self._stack = threading.local()
        # Anchor the monotonic clock to the wall once, so starts are
        # comparable across threads and processes without ever jumping.
        self._perf0 = time.perf_counter()
        self._wall0 = time.time()

    # -- clock -------------------------------------------------------------------

    def wall(self, perf: float) -> float:
        """Map a perf_counter reading onto the run's wall-clock timeline."""
        return self._wall0 + (perf - self._perf0)

    # -- span lifecycle ----------------------------------------------------------

    def span(self, name: str, *, parent: Optional[int] = None,
             **attrs: Any) -> Span:
        """Open a span; parent defaults to the thread's innermost span."""
        parent_id = parent if parent is not None else self.current_id()
        with self._lock:
            span_id = next(self._ids)
        return Span(self, span_id, parent_id, name, dict(attrs))

    def current_id(self) -> Optional[int]:
        """The innermost open span id on this thread (or None)."""
        stack = getattr(self._stack, "spans", None)
        return stack[-1].span_id if stack else None

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread (or None)."""
        stack = getattr(self._stack, "spans", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = []
            self._stack.spans = stack
        if self.track_open:
            parent_path = stack[-1]._path if stack else None
            span._path = (f"{parent_path}/{span.name}"
                          if parent_path else span.name)
            with self._lock:
                self._open[span.span_id] = span._path
        stack.append(span)

    def open_paths(self) -> List[str]:
        """Paths of every currently-open span, sorted (all threads).

        Empty unless :attr:`track_open` is enabled — the heartbeat
        sampler turns it on for its in-run "what is the run doing"
        report.
        """
        with self._lock:
            return sorted(self._open.values())

    def _pop(self, span: Span) -> None:
        stack = getattr(self._stack, "spans", None)
        if stack and stack[-1] is span:
            stack.pop()
        if self.track_open:
            with self._lock:
                self._open.pop(span.span_id, None)
        record = SpanRecord(
            span_id=span.span_id, parent_id=span.parent_id,
            name=span.name, start=span._start_wall,
            duration=span.duration, worker=self._worker_name(),
            attrs=dict(span.attrs))
        self._emit(record)

    @staticmethod
    def _worker_name() -> str:
        return f"{os.getpid()}/{threading.current_thread().name}"

    def _emit(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
        if self._on_close is not None:
            self._on_close(record)

    # -- adoption ----------------------------------------------------------------

    def adopt(self, records: Sequence[SpanRecord],
              parent_id: Optional[int] = None) -> None:
        """Graft spans recorded by another tracer under ``parent_id``.

        Process workers collect into their own tracer whose ids collide
        with ours; every adopted span gets a fresh id (links inside the
        adopted tree are preserved) and the tree's roots are re-parented
        to ``parent_id``.
        """
        remap: Dict[int, int] = {}
        with self._lock:
            for record in records:
                remap[record.span_id] = next(self._ids)
        for record in records:
            mapped_parent = (remap.get(record.parent_id, parent_id)
                             if record.parent_id is not None else parent_id)
            self._emit(SpanRecord(
                span_id=remap[record.span_id], parent_id=mapped_parent,
                name=record.name, start=record.start,
                duration=record.duration, worker=record.worker,
                attrs=dict(record.attrs)))

    # -- results -----------------------------------------------------------------

    def spans(self) -> List[SpanRecord]:
        """Every finished span so far (insertion order = close order)."""
        with self._lock:
            return list(self._records)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented library code talks to whatever
    :func:`repro.obs.current` returns; with no active session that is a
    tracer of this class, so the cost of instrumentation is one global
    read and a trivially inlined call.
    """

    enabled = False
    track_open = False

    def span(self, name: str, *, parent: Optional[int] = None,
             **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def current_id(self) -> Optional[int]:
        return None

    def open_paths(self) -> List[str]:
        return []

    def current_span(self) -> None:
        return None

    def adopt(self, records: Sequence[SpanRecord],
              parent_id: Optional[int] = None) -> None:
        return None

    def spans(self) -> List[SpanRecord]:
        return []
