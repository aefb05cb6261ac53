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
  traced-peak growth, at a configurable capture depth
  (``tracemalloc_depth`` stack frames per allocation site).

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
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

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


#: Readings captured at span open: (cpu, rss_kb, alloc_current_bytes,
#: alloc_peak_bytes) — None slots for disabled samplers.
_Readings = Tuple[Optional[float], Optional[float], Optional[int],
                  Optional[int]]


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

    def begin(self) -> _Readings:
        """Sample the counters at span open (called on the span's thread)."""
        cpu = _thread_cpu() if self.config.cpu else None
        rss = _rss_kb() if self.config.rss else None
        alloc_now = alloc_peak = None
        if self.config.tracemalloc and tracemalloc.is_tracing():
            alloc_now, alloc_peak = tracemalloc.get_traced_memory()
        return (cpu, rss, alloc_now, alloc_peak)

    def end(self, readings: _Readings) -> Dict[str, Any]:
        """Deltas since :meth:`begin`, as the span's ``profile`` attr."""
        cpu0, rss0, alloc0, alloc_peak0 = readings
        profile: Dict[str, Any] = {}
        if cpu0 is not None:
            profile["cpu_s"] = round(max(0.0, _thread_cpu() - cpu0), 6)
        if rss0 is not None:
            rss1 = _rss_kb()
            if rss1 is not None:
                profile["rss_peak_kb"] = round(max(0.0, rss1 - rss0), 1)
        if alloc0 is not None and tracemalloc.is_tracing():
            alloc1, alloc_peak1 = tracemalloc.get_traced_memory()
            profile["alloc_net_kb"] = round((alloc1 - alloc0) / 1024.0, 1)
            profile["alloc_peak_kb"] = round(
                max(0, alloc_peak1 - (alloc_peak0 or 0)) / 1024.0, 1)
        return profile
