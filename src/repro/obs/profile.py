"""Opt-in per-span resource profiling.

A :class:`SpanProfiler` attached to a run's tracer samples resource
counters when each span opens and closes, and publishes the deltas as a
``profile`` attribute on the finished span record:

- ``cpu_s`` — CPU seconds consumed by the owning thread while the span
  was open (``time.thread_time``), next to the span's own wall
  duration.  A span whose ``cpu_s`` is far below its wall time was
  waiting, not computing.
- ``rss_peak_kb`` — growth of the process peak RSS high-water mark
  (``resource.getrusage``) across the span, in KiB.  Zero means the
  span fit inside memory already reached.
- ``alloc_net_kb`` / ``alloc_peak_kb`` — with ``tracemalloc`` sampling
  enabled, the net Python allocation delta across the span and the
  peak of traced memory while the span was open, above its level at
  span open, at a configurable capture depth (``tracemalloc_depth``
  stack frames per allocation site).  Each span resets tracemalloc's
  peak when it opens and hands its own peak back to the span enclosing
  it on the same thread, so the peak is never below the net delta.
  The peak is process-wide: a span opening on another thread resets it
  too, so spans that overlap across threads may under-report theirs.

Profiling is **opt-in and inert by default**: without a profiler the
span fast path pays a single ``is None`` check, and nothing here ever
touches the RNG substreams — a profiled run is byte-identical to an
unprofiled one.  Readings survive :meth:`repro.obs.trace.Tracer.adopt`
because they ride in the span's attributes: process workers profile
into their local tracer and the parent grafts the finished records
verbatim.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]

import time
import tracemalloc

__all__ = ["ProfileConfig", "SpanProfiler"]


@dataclass(frozen=True, kw_only=True)
class ProfileConfig:
    """What the per-span profiler samples.

    Keyword-only: part of the stable :mod:`repro.api` surface
    (``Observability(profile=...)``), so fields may be added freely.
    """

    #: Sample per-thread CPU time (wall vs CPU breakdown).
    cpu: bool = True
    #: Sample the process peak-RSS high-water mark.
    rss: bool = True
    #: Sample Python allocations via :mod:`tracemalloc`.  Costly
    #: (every allocation is traced while enabled); off by default.
    tracemalloc: bool = False
    #: Stack depth captured per allocation site when tracing.
    tracemalloc_depth: int = 1

    def __post_init__(self) -> None:
        if self.tracemalloc_depth < 1:
            raise ValueError(
                f"tracemalloc_depth must be >= 1: {self.tracemalloc_depth}")


def _rss_kb() -> Optional[float]:
    """The process peak RSS in KiB (None where unsupported)."""
    if _resource is None:  # pragma: no cover - non-POSIX
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        return peak / 1024.0
    return float(peak)


def _thread_cpu() -> float:
    """CPU seconds of the calling thread (process-wide as a fallback)."""
    try:
        return time.thread_time()
    except (AttributeError, OSError):  # pragma: no cover - no clock
        return time.process_time()


#: Readings captured at span open: (cpu, rss_kb, alloc) — None slots
#: for disabled samplers.  ``alloc`` is ``[traced bytes at open, traced
#: peak so far]``, the second slot raised as the span runs.
_Readings = Tuple[Optional[float], Optional[float], Optional[List[int]]]


class SpanProfiler:
    """Samples resource counters around every span of one tracer.

    Instances are installed on a :class:`~repro.obs.trace.Tracer` (via
    ``Observability(profile=...)``); the span context manager calls
    :meth:`begin` on entry and :meth:`end` on exit, both on the thread
    that owns the span, so per-thread CPU clocks read correctly.
    """

    def __init__(self, config: Optional[ProfileConfig] = None):
        self.config = config if config is not None else ProfileConfig()
        self._started_tracemalloc = False
        # Per thread, the ``alloc`` readings of the spans open on it,
        # innermost last.
        self._local = threading.local()

    # -- lifecycle ---------------------------------------------------------------

    def install(self) -> "SpanProfiler":
        """Start global samplers (tracemalloc) if configured."""
        if self.config.tracemalloc and not tracemalloc.is_tracing():
            tracemalloc.start(self.config.tracemalloc_depth)
            self._started_tracemalloc = True
        return self

    def uninstall(self) -> None:
        """Stop any global sampler this profiler started (idempotent)."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracemalloc = False

    # -- per-span sampling -------------------------------------------------------

    def _open_allocs(self) -> List[List[int]]:
        stack = getattr(self._local, "allocs", None)
        if stack is None:
            stack = self._local.allocs = []
        return stack

    def begin(self) -> _Readings:
        """Sample the counters at span open (called on the span's thread)."""
        cpu = _thread_cpu() if self.config.cpu else None
        rss = _rss_kb() if self.config.rss else None
        alloc = None
        if self.config.tracemalloc and tracemalloc.is_tracing():
            now, peak = tracemalloc.get_traced_memory()
            stack = self._open_allocs()
            if stack:
                # The enclosing span's peak so far, before the reset.
                stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            alloc = [now, now]
            stack.append(alloc)
        return (cpu, rss, alloc)

    def end(self, readings: _Readings) -> Dict[str, Any]:
        """Deltas since :meth:`begin`, as the span's ``profile`` attr."""
        cpu0, rss0, alloc = readings
        profile: Dict[str, Any] = {}
        if cpu0 is not None:
            profile["cpu_s"] = round(max(0.0, _thread_cpu() - cpu0), 6)
        if rss0 is not None:
            rss1 = _rss_kb()
            if rss1 is not None:
                profile["rss_peak_kb"] = round(max(0.0, rss1 - rss0), 1)
        if alloc is not None:
            stack = self._open_allocs()
            stack.pop()
            if tracemalloc.is_tracing():
                now, peak = tracemalloc.get_traced_memory()
                peak = max(alloc[1], peak)
                if stack:
                    stack[-1][1] = max(stack[-1][1], peak)
                profile["alloc_net_kb"] = round((now - alloc[0]) / 1024.0, 1)
                profile["alloc_peak_kb"] = round(
                    (peak - alloc[0]) / 1024.0, 1)
        return profile
