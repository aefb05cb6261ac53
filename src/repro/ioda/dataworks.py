"""The DataWorks review pass (§3.1.2).

The paper's team contracted DataWorks to review the historical curated
records, filling missing fields (start/end times, which signals showed
visible drops) with a quality-assurance sample re-checked by the authors.

:class:`DataWorksReviewer` reproduces that second-pass review: it replays
each record's window through the platform, re-derives the per-signal
visibility flags from the signals, fills any flag that disagrees with the
evidence, and reports what it changed.  Running it over a well-curated
list should produce few corrections — the review's agreement rate is
itself a data-quality metric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.ioda.platform import IODAPlatform
from repro.ioda.records import OutageRecord
from repro.signals.entities import Entity, EntityScope
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import HOUR, TimeRange

__all__ = ["ReviewOutcome", "DataWorksReviewer"]


@dataclass(frozen=True)
class ReviewOutcome:
    """Result of reviewing one record."""

    record: OutageRecord
    corrected: bool
    corrections: Tuple[str, ...] = ()


class DataWorksReviewer:
    """Re-derives visibility flags from signals and fixes disagreements."""

    def __init__(self, platform: IODAPlatform,
                 depth_thresholds: Dict[SignalKind, float] | None = None,
                 context: int = 12 * HOUR,
                 margin: float = 0.08):
        self._platform = platform
        self._thresholds = depth_thresholds or {
            SignalKind.BGP: 0.12,
            SignalKind.ACTIVE_PROBING: 0.15,
            SignalKind.TELESCOPE: 0.50,
        }
        self._context = context
        #: A recorded flag is only overturned when the re-derived depth is
        #: decisively on the other side of the threshold; borderline calls
        #: defer to the original curator's judgment.
        self._margin = margin

    def review(self, record: OutageRecord) -> ReviewOutcome:
        """Review one record against the signals."""
        entity = self._entity(record)
        window = record.span.expand(before=self._context,
                                    after=self._context)
        corrections: List[str] = []
        reviewed_flags = dict(record.human_visible)
        for kind in SignalKind:
            depth = self._depth(entity, kind, record.span, window)
            recorded = record.human_visible[kind]
            threshold = self._thresholds[kind]
            if recorded and depth < threshold - self._margin:
                observed = False
            elif not recorded and depth >= threshold + self._margin:
                observed = True
            else:
                continue
            reviewed_flags[kind] = observed
            corrections.append(
                f"{kind.label}: recorded {recorded}, signals show "
                f"{observed} (depth {depth:.2f})")
        if not corrections:
            return ReviewOutcome(record=record, corrected=False)
        # Never flip a record to fully invisible — the record's existence
        # attests that reviewers saw something; keep the strongest flag.
        if not any(reviewed_flags.values()):
            best = max(
                SignalKind,
                key=lambda k: self._depth(entity, k, record.span, window))
            reviewed_flags[best] = True
        reviewed = replace(record, human_visible=reviewed_flags)
        return ReviewOutcome(record=reviewed, corrected=True,
                             corrections=tuple(corrections))

    def review_all(self, records: Sequence[OutageRecord]
                   ) -> Tuple[List[OutageRecord], List[ReviewOutcome]]:
        """Review every record; return (reviewed records, corrections)."""
        reviewed: List[OutageRecord] = []
        changed: List[ReviewOutcome] = []
        for record in records:
            outcome = self.review(record)
            reviewed.append(outcome.record)
            if outcome.corrected:
                changed.append(outcome)
        return reviewed, changed

    def agreement_rate(self, records: Sequence[OutageRecord]) -> float:
        """Fraction of records the review leaves untouched."""
        if not records:
            return 1.0
        _, changed = self.review_all(records)
        return 1.0 - len(changed) / len(records)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _entity(record: OutageRecord) -> Entity:
        if record.scope is EntityScope.REGION and record.region_names:
            return Entity(EntityScope.REGION, record.region_names[0])
        return Entity.country(record.country_iso2)

    def _depth(self, entity: Entity, kind: SignalKind, span: TimeRange,
               window: TimeRange) -> float:
        series = self._platform.signal(entity, kind, window)
        before = series.slice(TimeRange(window.start, span.start))
        during = series.slice(span)
        baseline = float(np.median(before.values))
        if baseline <= 0 or len(during) == 0:
            return 0.0
        if len(during) >= 3:
            smoothed = np.convolve(
                during.values, np.full(3, 1.0 / 3.0), mode="valid")
            low = float(smoothed.min())
        else:
            low = float(during.values.min())
        return max(0.0, 1.0 - low / baseline)
