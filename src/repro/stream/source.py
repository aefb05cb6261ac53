"""Replaying a scenario as a live bin feed.

:class:`ScenarioBinSource` turns the synthetic platform into the thing
the paper's platforms actually are: a feed that delivers measurement
bins as time passes.  It walks the scenario's investigation windows,
pulls each (country, window, signal) series from the platform exactly
once — lazily, the first time the advancing watermark reaches it — and
hands the elapsed bins out as watermarked :class:`~repro.stream.models.
BinBatch`\\ es of :class:`~repro.stream.models.BinSegment`\\ s: one
read-only slice of each live series per step.  Because platform signals
are deterministic per (seed, entity, window start), the feed replays the
very bins batch detection would read, which is what makes
stream-vs-batch byte-identity provable.

The pull is the source's fault-injection site: with a
:class:`~repro.resilience.ResilienceConfig`, each series fetch runs
under :func:`~repro.resilience.call_with_retry` (site
``stream.source``), so an ambient :class:`~repro.resilience.FaultPlan`
can fail fetches that then back off and retry deterministically.  A
recovered fetch returns the same deterministic series a fault-free run
reads — a chaos stream that survives its faults finalizes byte-identical
to a calm one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import StreamError
from repro.ioda.platform import IODAPlatform
from repro.resilience import BreakerBoard, ResilienceConfig, call_with_retry
from repro.signals.entities import Entity
from repro.signals.kinds import SignalKind
from repro.stream.models import BinBatch, BinSegment, bin_grid
from repro.timeutils.timestamps import TimeRange

__all__ = ["ScenarioBinSource"]


@dataclass
class _Grid:
    """Replay cursor over one (country, window, signal) series."""

    order: int
    iso2: str
    window: TimeRange
    kind: SignalKind
    start: int
    n_bins: int
    cursor: int = 0
    values: Optional[np.ndarray] = None

    @property
    def end(self) -> int:
        return self.start + self.n_bins * self.kind.bin_width

    @property
    def first_end(self) -> int:
        """The watermark at which the series' first bin has elapsed."""
        return self.start + self.kind.bin_width


class ScenarioBinSource:
    """Streams a scenario's country-level signal bins in watermark steps.

    ``windows`` is the per-country investigation-window map
    (:meth:`repro.ioda.curation.CurationPipeline.country_windows`) — the
    same map the batch executor distributes, so the source covers
    exactly the bins batch curation reads.
    """

    def __init__(self, platform: IODAPlatform,
                 windows: Mapping[str, Sequence[TimeRange]], *,
                 resilience: Optional[ResilienceConfig] = None):
        self._platform = platform
        self._resilience = resilience
        self._board = (BreakerBoard(resilience.breaker)
                       if resilience is not None else None)
        self._grids: List[_Grid] = []
        for iso2 in sorted(windows):
            for window in windows[iso2]:
                for kind in SignalKind:
                    start, n_bins = bin_grid(window, kind)
                    self._grids.append(_Grid(
                        order=len(self._grids), iso2=iso2, window=window,
                        kind=kind, start=start, n_bins=n_bins))

    @property
    def horizon(self) -> int:
        """Timestamp past the last bin of the last window."""
        if not self._grids:
            raise StreamError("source has no windows to stream")
        return max(grid.end for grid in self._grids)

    @property
    def origin(self) -> int:
        """Timestamp of the earliest bin of any window."""
        if not self._grids:
            raise StreamError("source has no windows to stream")
        return min(grid.start for grid in self._grids)

    def batches(self, step: int) -> Iterator[BinBatch]:
        """Yield the feed in watermark increments of ``step`` seconds.

        Each batch carries every bin that fully elapsed since the
        previous batch (bin end <= watermark) — one segment per series
        with new bins, in (country, window, signal) order — plus the
        watermark itself, so a driver can ``push`` then
        ``advance_watermark`` in one move.  The final batch's watermark
        is exactly :attr:`horizon`.  Series are materialized lazily and
        the source drops its backing arrays as soon as their last bin
        ships, so it never holds the whole study period at once; each
        step visits only the series that have started and are not yet
        fully shipped.
        """
        if step <= 0:
            raise StreamError(f"watermark step must be positive: {step}")
        if not self._grids:
            return
        horizon = self.horizon
        watermark = self.origin
        pending = sorted((g for g in self._grids if g.cursor < g.n_bins),
                         key=lambda g: (g.first_end, g.order))
        admitted = 0
        live: List[_Grid] = []
        while watermark < horizon:
            watermark = min(watermark + step, horizon)
            while (admitted < len(pending)
                   and pending[admitted].first_end <= watermark):
                bisect.insort(live, pending[admitted],
                              key=lambda g: g.order)
                admitted += 1
            segments: List[BinSegment] = []
            for grid in live:
                ready = min(grid.n_bins,
                            (watermark - grid.start) // grid.kind.bin_width)
                if ready <= grid.cursor:
                    continue
                if grid.values is None:
                    self._materialize(grid)
                assert grid.values is not None
                segments.append(BinSegment(
                    grid.iso2, grid.kind, grid.window.start,
                    grid.start + grid.cursor * grid.kind.bin_width,
                    grid.values[grid.cursor:ready]))
                grid.cursor = ready
                if grid.cursor >= grid.n_bins:
                    grid.values = None
            live = [grid for grid in live if grid.cursor < grid.n_bins]
            yield BinBatch(segments=tuple(segments), watermark=watermark)

    def _materialize(self, grid: _Grid) -> None:
        """Pull one series from the platform (the retried fault site)."""
        entity = Entity.country(grid.iso2)

        def pull() -> None:
            series = self._platform.signal(entity, grid.kind, grid.window)
            starts, values = series.arrays()
            width = grid.kind.bin_width
            if not np.array_equal(
                    starts, grid.start + width * np.arange(grid.n_bins)):
                raise StreamError(
                    f"platform series disagrees with the bin grid for "
                    f"{grid.iso2}/{grid.kind.value} at {grid.window}")
            grid.values = np.array(values, dtype=np.float64)
            grid.values.flags.writeable = False

        if self._resilience is None:
            pull()
            return
        assert self._board is not None
        call_with_retry(
            pull, policy=self._resilience.retry,
            key=f"{grid.iso2}:{grid.window.start}:{grid.kind.value}",
            site="stream.source",
            breaker=self._board.get(grid.iso2))
