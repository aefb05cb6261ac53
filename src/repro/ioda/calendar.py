"""IODA observation calendar: data-quality gaps and downtime.

The paper's curated list is incomplete from August to November 2021
(collection issues and inconsistent investigation) and empty from November
2021 to early February 2022 while IODA migrated between institutions —
which is why the study period ends on 2021-08-01 (§3.1.2).

:class:`ObservationCalendar` makes those windows first-class: a curation
run handed a calendar will not record events whose investigation falls in
an ``OFFLINE`` gap and records only a fraction of events in ``DEGRADED``
gaps.  The default study period avoids the gaps entirely; the calendar
exists so that anyone extending the period sees the same bias the paper's
authors protected themselves from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.rng import substream
from repro.timeutils.timestamps import TimeRange, utc

__all__ = ["GapKind", "ObservationGap", "ObservationCalendar",
           "IODA_CALENDAR"]


class GapKind(enum.Enum):
    """Severity of an observation gap."""

    DEGRADED = "degraded"   # collection issues; spotty investigation
    OFFLINE = "offline"     # platform down entirely


@dataclass(frozen=True)
class ObservationGap:
    """One gap in IODA's coverage."""

    span: TimeRange
    kind: GapKind
    reason: str

    #: Fraction of events still investigated during a DEGRADED gap.
    DEGRADED_COVERAGE = 0.3


@dataclass(frozen=True)
class ObservationCalendar:
    """The set of known gaps."""

    gaps: Tuple[ObservationGap, ...] = ()

    def gap_at(self, ts: int) -> Optional[ObservationGap]:
        """The gap containing ``ts``, if any."""
        for gap in self.gaps:
            if gap.span.contains(ts):
                return gap
        return None

    def observes(self, ts: int, seed: int) -> bool:
        """Whether an event starting at ``ts`` would be investigated.

        Deterministic per (timestamp, seed), so repeated runs agree.
        """
        gap = self.gap_at(ts)
        if gap is None:
            return True
        if gap.kind is GapKind.OFFLINE:
            return False
        rng = substream(seed, "calendar", ts)
        return bool(rng.random() < ObservationGap.DEGRADED_COVERAGE)



#: The real IODA gaps the paper documents.
IODA_CALENDAR = ObservationCalendar(gaps=(
    ObservationGap(
        span=TimeRange(utc(2021, 8, 1), utc(2021, 11, 1)),
        kind=GapKind.DEGRADED,
        reason="data collection issues and inconsistent investigation"),
    ObservationGap(
        span=TimeRange(utc(2021, 11, 1), utc(2022, 2, 7)),
        kind=GapKind.OFFLINE,
        reason="infrastructure migration between institutions"),
))
