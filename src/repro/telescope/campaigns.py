"""Scanning campaigns: the telescope's positive-spike artifact.

Real telescope traffic is punctuated by global scanning campaigns — a
botnet or research scanner sweeps the IPv4 space and the unique-source
count jumps for hours.  Campaigns matter to outage work for a subtle
reason: a campaign *ending* looks like a drop.  If the baseline window of
the alert detector was inflated by a campaign, the return to normal can
cross the 25% threshold and masquerade as an outage.

:class:`CampaignSchedule` generates campaign intervals;
:func:`apply_campaigns` inflates a telescope series accordingly; and
:func:`campaign_suppression_mask` implements the standard mitigation —
flagging bins whose level is implausibly *above* the trailing median so
they can be excluded from baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import substream
from repro.signals.series import TimeSeries
from repro.stats.rolling import TrailingMedianStream
from repro.timeutils.timestamps import HOUR, TimeRange

__all__ = ["Campaign", "CampaignSchedule", "apply_campaigns",
           "campaign_suppression_mask"]


@dataclass(frozen=True)
class Campaign:
    """One scanning campaign: a span and an intensity multiplier."""

    span: TimeRange
    multiplier: float

    def __post_init__(self) -> None:
        if self.multiplier <= 1.0:
            raise ConfigurationError(
                f"campaign multiplier must exceed 1: {self.multiplier}")


class CampaignSchedule:
    """Poisson-arriving campaigns over an observation period."""

    def __init__(self, seed: int, rate_per_week: float = 0.5,
                 mean_duration_hours: float = 8.0):
        if rate_per_week < 0:
            raise ConfigurationError(
                f"rate must be non-negative: {rate_per_week}")
        self._seed = seed
        self._rate = rate_per_week
        self._mean_hours = mean_duration_hours

    def campaigns(self, period: TimeRange) -> List[Campaign]:
        """All campaigns within ``period`` (deterministic per seed)."""
        rng = substream(self._seed, "campaigns", period.start)
        weeks = period.duration / (7 * 24 * 3600)
        n = int(rng.poisson(self._rate * weeks))
        campaigns = []
        for _ in range(n):
            start = int(period.start
                        + rng.integers(0, max(1, period.duration)))
            duration = max(HOUR, int(rng.exponential(
                self._mean_hours * 3600)))
            end = min(start + duration, period.end)
            if end <= start:
                continue
            campaigns.append(Campaign(
                span=TimeRange(start, end),
                multiplier=float(rng.uniform(1.5, 4.0))))
        campaigns.sort(key=lambda c: c.span.start)
        return campaigns


def apply_campaigns(series: TimeSeries,
                    campaigns: List[Campaign]) -> TimeSeries:
    """A copy of ``series`` with campaign inflation applied."""
    values = series.values.copy()
    for campaign in campaigns:
        clipped = campaign.span.intersect(series.span)
        if clipped is None:
            continue
        first = (clipped.start - series.start) // series.width
        last = -(-(clipped.end - series.start) // series.width)
        values[first:last] = np.round(
            values[first:last] * campaign.multiplier)
    return TimeSeries(series.start, series.width, values)


def campaign_suppression_mask(series: TimeSeries,
                              window_bins: int = 288,
                              spike_factor: float = 1.6) -> np.ndarray:
    """Boolean mask of bins that look campaign-inflated.

    A bin is flagged when it exceeds ``spike_factor`` times the trailing
    median — the mirror image of the drop detector.  Alert baselines
    computed with flagged bins excluded do not get dragged up by
    campaigns, so campaign *endings* stop looking like outages.
    """
    if window_bins <= 0:
        raise ConfigurationError(
            f"window_bins must be positive: {window_bins}")
    tracker = TrailingMedianStream(window_bins)
    mask = np.zeros(len(series), dtype=bool)
    at_first = np.zeros(1, dtype=np.int64)
    for index, value in enumerate(series.values):
        chunk = np.array([value])
        # NaN until a bin has entered the baseline, which never flags.
        baseline = tracker.medians_at(chunk, at_first)[0]
        flagged = baseline > 0 and value > spike_factor * baseline
        mask[index] = flagged
        # Flagged bins do not enter the baseline themselves.
        if not flagged:
            tracker.push(chunk)
    return mask
