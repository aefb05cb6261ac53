"""The merged event dataset (§4).

:class:`MergedDataset` bundles everything the analysis consumes: the
study-period, country-level filtered IODA records and KIO entries, the
match set, and the labeled events.  :func:`build_merged_dataset` applies
the paper's filtering order:

1. Restrict KIO to nationwide entries and IODA to country-scope records
   (the paper drops subnational events: India-concentrated, mobile-heavy,
   and index datasets are country-level only).
2. Restrict both to the study period.
3. Match, then label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.labeling import LabeledEvent, label_events
from repro.core.matching import EventMatcher, Match
from repro.countries.registry import CountryRegistry
from repro.ioda.records import OutageRecord
from repro.kio.schema import KIOEvent
from repro.obs.runtime import current
from repro.signals.entities import EntityScope
from repro.timeutils.timestamps import DAY, TimeRange

__all__ = ["MergedDataset", "build_merged_dataset"]


@dataclass(frozen=True)
class MergedDataset:
    """The filtered, matched, and labeled event dataset."""

    period: TimeRange
    registry: CountryRegistry
    kio_full_network: Tuple[KIOEvent, ...]
    ioda_records: Tuple[OutageRecord, ...]
    matches: Tuple[Match, ...]
    labeled: Tuple[LabeledEvent, ...]

    # -- the sets the analyses are phrased over ---------------------------------

    def ioda_shutdowns(self) -> List[LabeledEvent]:
        """The "IODA shutdowns" set of §5.3."""
        return [e for e in self.labeled if e.is_shutdown]

    def ioda_outages(self) -> List[LabeledEvent]:
        """The "IODA outages" (spontaneous) set of §5.3."""
        return [e for e in self.labeled if not e.is_shutdown]

    def shutdown_countries(self) -> List[str]:
        """Countries with at least one shutdown (KIO or IODA) in period."""
        countries = {e.record.country_iso2 for e in self.ioda_shutdowns()}
        countries.update(self._kio_iso2(event)
                         for event in self.kio_full_network)
        return sorted(c for c in countries if c)

    def outage_countries(self) -> List[str]:
        """Countries with at least one spontaneous outage in period."""
        return sorted({e.record.country_iso2 for e in self.ioda_outages()})

    def total_shutdown_events(self) -> int:
        """Size of the union shutdown set (KIO ∪ IODA, matches deduped).

        The paper's 219 = 82 KIO + 182 IODA − 45 KIO-matched entries.
        """
        matched_kio = {m.kio_event_id for m in self.matches}
        return (len(self.kio_full_network) + len(self.ioda_shutdowns())
                - len(matched_kio & {e.event_id
                                     for e in self.kio_full_network}))

    # -- helpers ---------------------------------------------------------------

    def _kio_iso2(self, event: KIOEvent) -> str:
        return self.registry.by_name(event.country_name).iso2

    def kio_matched_count(self) -> int:
        """KIO entries matched to at least one IODA record."""
        matched = {m.kio_event_id for m in self.matches}
        return sum(1 for e in self.kio_full_network
                   if e.event_id in matched)

    def ioda_matched_count(self) -> int:
        """IODA records matched to at least one KIO entry."""
        matched = {m.ioda_record_id for m in self.matches}
        return sum(1 for r in self.ioda_records
                   if r.record_id in matched)


def build_merged_dataset(
        registry: CountryRegistry,
        kio_events: Sequence[KIOEvent],
        ioda_records: Sequence[OutageRecord],
        period: TimeRange) -> MergedDataset:
    """Filter, match, and label; see module docstring for the rules."""
    period_days = TimeRange(period.start // DAY, -(-period.end // DAY))
    kio_filtered = tuple(
        event for event in kio_events
        if event.nationwide and event.is_full_network
        and period_days.contains(event.start_day))
    ioda_filtered = tuple(
        record for record in ioda_records
        if record.scope is EntityScope.COUNTRY
        and period.contains(record.span.start))
    matcher = EventMatcher(registry)
    matches = tuple(matcher.match(kio_filtered, ioda_filtered))
    labeled = tuple(label_events(ioda_filtered, matches))
    recorder = current().provenance
    if recorder is not None:
        # One journal-only verdict per labeled record, closing the
        # lineage chain its adjudication capsule opened.
        for event in labeled:
            recorder.note("provenance.verdict", {
                "record_id": event.record.record_id,
                "label": event.label.value,
                "via_kio_match": event.via_kio_match,
                "via_cause": event.via_cause,
                "matched_kio_ids": list(event.matched_kio_ids),
            })
    return MergedDataset(
        period=period,
        registry=registry,
        kio_full_network=kio_filtered,
        ioda_records=ioda_filtered,
        matches=matches,
        labeled=labeled,
    )
