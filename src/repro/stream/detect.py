"""The alert detection core.

:class:`StreamingAlertDetector` is IODA's median-of-trailing-window drop
detector (:mod:`repro.signals.alerts`) run chunk at a time: bins arrive
in contiguous chunks (one per watermark advance, or the whole series at
once), state is bounded to O(window) per series
(:class:`repro.stats.rolling.TrailingMedianStream` plus a running max
and a bin counter), and every chunking of a series yields the same
alerts bit for bit — a running-max prefilter, exact rank-select
baselines at the surviving candidates, and a strict threshold compare.
A feed's baselines cost what its chunk costs: a watermark step is
ranked against the sorted retained tail (work grows with the step,
not the window), a whole series (or a stream's first feed, which has
no tail) by the wavelet-matrix kernel of
:func:`repro.stats.rolling.trailing_median_at`, at the candidate bins
only.

:class:`StreamingEpisodeGrouper` merges those alerts into maximal
episodes as they stream in, emitting each one as soon as a gap proves
it closed; the open run is inspectable (the engine surfaces it as a
provisional episode for ``open``/``update`` lifecycle events).

:func:`stream_episodes` composes the two over a whole series in one
feed, which is how the batch dashboard (:mod:`repro.ioda.dashboard`)
runs: batch detection is the streaming core fed one maximal chunk, so
there is exactly one detection implementation.  The per-bin and
per-alert reference implementations the tests hold it to live in
``tests/oracles.py``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SignalError
from repro.signals.alerts import Alert, AlertEpisode, DetectorConfig, \
    _check_grouping_args, _episode_from_run
from repro.signals.series import TimeSeries
from repro.stats.rolling import TrailingMedianStream

__all__ = ["StreamingAlertDetector", "StreamingEpisodeGrouper",
           "stream_episodes"]


class StreamingAlertDetector:
    """Median-of-trailing-window drop detector over a growing series.

    Construct one per (series, signal); feed contiguous chunks in time
    order.  The detector keeps only the trailing history window, the
    running maximum, and the number of bins absorbed — never the whole
    series — so memory stays O(window) no matter how long the stream
    runs.  Every chunking of a series emits the same alerts, because
    every per-bin quantity (prefilter max, baseline median, threshold
    compare) depends only on the bins before it.  The current bin never
    contributes to its own baseline (the window is strictly trailing),
    so a sharp total outage alerts immediately rather than dragging its
    own baseline down.
    """

    def __init__(self, config: DetectorConfig, width: int):
        if width <= 0:
            raise SignalError(f"bin width must be positive: {width}")
        window = config.history_seconds // width
        if window <= 0:
            raise SignalError(
                f"history window {config.history_seconds}s shorter "
                f"than one bin ({width}s)")
        self._config = config
        self._width = width
        self._window = window
        self._min_history = max(
            1, int(window * config.min_history_fraction))
        self._median = TrailingMedianStream(window)
        self._running_max = -np.inf
        self._n = 0

    @property
    def config(self) -> DetectorConfig:
        return self._config

    @property
    def window(self) -> int:
        """History window, in bins."""
        return self._window

    @property
    def n_bins(self) -> int:
        """Total bins absorbed so far."""
        return self._n

    def feed(self, bin_starts: np.ndarray,
             values: np.ndarray) -> List[Alert]:
        """Absorb the next contiguous chunk; return its alerting bins.

        ``bin_starts[j]`` is the start time of the bin ``values[j]``
        measures; the two arrays must have the same length, and every
        value must be finite (:class:`~repro.errors.SignalError`
        otherwise): a NaN would rank above every number in its
        baselines' windows and could never alert itself.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise SignalError("feed expects a one-dimensional chunk")
        if len(bin_starts) != values.shape[0]:
            raise SignalError(
                f"feed got {len(bin_starts)} bin starts for "
                f"{values.shape[0]} values")
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise SignalError(
                f"non-finite value {float(values[i])!r} at position {i} "
                f"(bin {int(bin_starts[i])}) of the chunk")
        if values.shape[0] == 0:
            return []
        # Prefix maxima seeded with the running max: prev[j] is the
        # largest value strictly before global bin n + j.  A baseline
        # median never exceeds the largest value of its history, and
        # x <= y implies fl(t*x) <= fl(t*y) (rounding is monotone), so
        # bins at or above threshold * prev cannot alert and need no
        # median: the quiet series that dominate curation exit here.
        m = np.maximum.accumulate(
            np.concatenate([[self._running_max], values]))
        prev = m[:-1]
        j = np.arange(values.shape[0])
        eligible = self._n + j >= self._min_history
        candidates = np.flatnonzero(
            eligible & (values < self._config.threshold * prev))
        alerts: List[Alert] = []
        if candidates.size:
            baselines = self._median.medians_at(values, candidates)
            keep = values[candidates] \
                < self._config.threshold * baselines
            hits = candidates[keep]
            alerts = [
                Alert(time=time, value=value, baseline=baseline)
                for time, value, baseline in zip(
                    np.asarray(bin_starts, dtype=np.int64)[hits].tolist(),
                    values[hits].tolist(), baselines[keep].tolist())]
        self._median.push(values)
        self._running_max = float(m[-1])
        self._n += values.shape[0]
        return alerts


class StreamingEpisodeGrouper:
    """Merges alerting bins into maximal :class:`AlertEpisode` runs.

    Alerts stream in, in strictly increasing time order.  An alert
    within ``max_gap_bins`` missing bins of the previous one extends
    the current run (a one-bin tolerance absorbs single-bin flickers
    at the edge of the threshold); a larger gap closes the run, and its
    episode is emitted at once.  The still-open run is observable as a
    provisional episode (:meth:`open_episode`) — the engine's
    ``open``/``update`` lifecycle events are exactly that view — and
    :meth:`finalize` flushes it when the series ends.  Any split of an
    alert list into feeds yields the same episodes.
    """

    def __init__(self, bin_width: int, max_gap_bins: int = 1):
        _check_grouping_args(bin_width, max_gap_bins)
        self._bin_width = bin_width
        self._max_gap = (max_gap_bins + 1) * bin_width
        self._run: List[Alert] = []
        self._closed = False

    def feed(self, alerts: Sequence[Alert]) -> List[AlertEpisode]:
        """Absorb alerts; return the episodes they prove closed.

        Raises :class:`~repro.errors.SignalError` as soon as an alert is
        not strictly later than the one before it, in this call or an
        earlier one.
        """
        if self._closed:
            raise SignalError("grouper already finalized")
        episodes: List[AlertEpisode] = []
        for alert in alerts:
            if self._run and alert.time <= self._run[-1].time:
                raise SignalError(
                    f"alert at {alert.time} is not after the previous "
                    f"alert at {self._run[-1].time}")
            if self._run and alert.time <= self._run[-1].time \
                    + self._max_gap:
                self._run.append(alert)
            else:
                if self._run:
                    episodes.append(
                        _episode_from_run(self._run, self._bin_width))
                self._run = [alert]
        return episodes

    def open_episode(self) -> Optional[AlertEpisode]:
        """The provisional episode of the still-open run (or None)."""
        if not self._run:
            return None
        return _episode_from_run(self._run, self._bin_width)

    def finalize(self) -> List[AlertEpisode]:
        """Close the grouper, flushing the open run (idempotent)."""
        if self._closed:
            return []
        self._closed = True
        if not self._run:
            return []
        episode = _episode_from_run(self._run, self._bin_width)
        self._run = []
        return [episode]


def stream_episodes(series: TimeSeries, config: DetectorConfig,
                    max_gap_bins: int = 1) -> List[AlertEpisode]:
    """Detect and group one whole series through the streaming core.

    One maximal chunk through :class:`StreamingAlertDetector` and
    :class:`StreamingEpisodeGrouper`; the dashboard, and through it all
    of batch curation, routes here: batch is the ingest-everything
    special case of the stream engine.
    """
    detector = StreamingAlertDetector(config, series.width)
    grouper = StreamingEpisodeGrouper(series.width,
                                      max_gap_bins=max_gap_bins)
    bin_starts, values = series.arrays()
    episodes = grouper.feed(detector.feed(bin_starts, values))
    episodes.extend(grouper.finalize())
    return episodes
