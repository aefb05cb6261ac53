"""IODA's automated alert detection.

For each signal, IODA raises an alert whenever the current bin drops below a
signal-specific fraction of the median of a trailing history window (§3.1.1):

====================  ==========  =================
Signal                Threshold   History window
====================  ==========  =================
BGP                   99%         24 hours
Active Probing        80%         7 days
Telescope             25%         7 days
====================  ==========  =================

This module holds the detector's vocabulary: :class:`DetectorConfig`
(threshold, history window, cold-start guard), the :class:`Alert` a
bin raises, and the :class:`AlertEpisode` a run of consecutive alerting
bins is merged into — the unit the curation pipeline reasons about ("a
prolonged ... drop", §3.1.2).  The per-signal configurations live in
:mod:`repro.ioda.detectors`.

The detector itself is :class:`~repro.stream.detect.StreamingAlertDetector`
with :class:`~repro.stream.detect.StreamingEpisodeGrouper`: batch
curation feeds each series as one chunk, :func:`repro.api.stream` feeds
it as the watermark advances, and both get the same alerts bit for bit.
The per-bin reference implementations the tests compare it against live
in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SignalError
from repro.timeutils.timestamps import TimeRange

__all__ = ["DetectorConfig", "Alert", "AlertEpisode"]


@dataclass(frozen=True)
class DetectorConfig:
    """Parameters of a drop detector.

    ``threshold`` is the fraction of the historical median below which a bin
    alerts (0.99 for BGP).  ``history_seconds`` is the length of the
    trailing window the median is computed over.  ``min_history_fraction``
    guards cold starts: no alerts are produced until at least that fraction
    of the window has been observed.
    """

    threshold: float
    history_seconds: int
    min_history_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise SignalError(
                f"alert threshold must be in (0, 1]: {self.threshold}")
        if self.history_seconds <= 0:
            raise SignalError(
                f"history window must be positive: {self.history_seconds}")
        if not 0.0 < self.min_history_fraction <= 1.0:
            raise SignalError(
                f"min history fraction must be in (0, 1]: "
                f"{self.min_history_fraction}")


@dataclass(frozen=True)
class Alert:
    """One alerting bin: its start time, observed value and the baseline
    median it was compared against."""

    time: int
    value: float
    baseline: float


@dataclass(frozen=True)
class AlertEpisode:
    """A maximal run of consecutive alerting bins."""

    span: TimeRange
    min_value: float
    baseline: float
    n_bins: int

    @property
    def depth(self) -> float:
        """Relative depth of the drop: 1 - min/baseline (0 = no drop)."""
        if self.baseline <= 0:
            return 0.0
        return max(0.0, 1.0 - self.min_value / self.baseline)


def _check_grouping_args(bin_width: int, max_gap_bins: int) -> None:
    if bin_width <= 0:
        raise SignalError(f"bin width must be positive: {bin_width}")
    if max_gap_bins < 0:
        raise SignalError(
            f"max gap must be >= 0 bins: {max_gap_bins}")


def _episode_from_run(run: Sequence[Alert], bin_width: int) -> AlertEpisode:
    return AlertEpisode(
        span=TimeRange(run[0].time, run[-1].time + bin_width),
        min_value=min(alert.value for alert in run),
        baseline=run[0].baseline,
        n_bins=len(run),
    )
