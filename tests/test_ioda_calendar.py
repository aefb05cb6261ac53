"""Tests for the observation calendar and its curation integration."""

import pytest

from repro.ioda.calendar import (
    GapKind,
    IODA_CALENDAR,
    ObservationCalendar,
    ObservationGap,
)
from repro.ioda.curation import CurationPipeline
from repro.signals.entities import EntityScope
from repro.timeutils.timestamps import DAY, TimeRange, utc
from repro.world.scenario import STUDY_PERIOD


class TestCalendar:
    def test_default_calendar_matches_paper(self):
        assert len(IODA_CALENDAR.gaps) == 2
        degraded, offline = IODA_CALENDAR.gaps
        assert degraded.kind is GapKind.DEGRADED
        assert degraded.span.start == utc(2021, 8, 1)
        assert offline.kind is GapKind.OFFLINE
        assert offline.span.end == utc(2022, 2, 7)

    def test_study_period_avoids_all_gaps(self):
        """The paper chose the study end to dodge the gaps entirely."""
        for gap in IODA_CALENDAR.gaps:
            assert not gap.span.overlaps(STUDY_PERIOD)

    def test_gap_lookup(self):
        assert IODA_CALENDAR.gap_at(utc(2021, 9, 15)) is not None
        assert IODA_CALENDAR.gap_at(utc(2021, 7, 15)) is None

    def test_offline_never_observes(self):
        ts = utc(2021, 12, 15)
        assert not IODA_CALENDAR.observes(ts, seed=1)
        assert not IODA_CALENDAR.observes(ts, seed=2)

    def test_degraded_observes_a_fraction(self):
        hits = sum(
            1 for day in range(90)
            if IODA_CALENDAR.observes(utc(2021, 8, 2) + day * DAY, seed=1))
        assert 10 < hits < 50  # ~30% of 90

    def test_observes_deterministic(self):
        ts = utc(2021, 9, 1, 12)
        assert IODA_CALENDAR.observes(ts, seed=5) == \
            IODA_CALENDAR.observes(ts, seed=5)

    def test_empty_calendar_observes_everything(self):
        calendar = ObservationCalendar()
        assert calendar.observes(utc(2021, 12, 15), seed=1)


class TestCurationWithCalendar:
    def test_offline_gap_suppresses_records(self, platform, scenario):
        """Extending past the study period without the calendar records
        events that the calendar correctly drops."""
        extended = TimeRange(utc(2021, 6, 1), utc(2022, 1, 1))
        # An event inside the offline gap.
        event = next(
            (d for d in scenario.all_disruptions()
             if d.scope is EntityScope.COUNTRY
             and utc(2021, 11, 5) <= d.span.start < utc(2021, 12, 25)
             and d.severity >= 0.9 and not d.mobile_only), None)
        assert event is not None, "need an event inside the offline gap"
        window = TimeRange(event.span.start - int(3.5 * DAY),
                           event.span.end + DAY)
        naive = CurationPipeline(platform)
        aware = CurationPipeline(platform, calendar=IODA_CALENDAR)
        naive_records = naive.investigate(
            event.country_iso2, window, extended)
        aware_records = aware.investigate(
            event.country_iso2, window, extended)
        assert any(r.span.overlaps(event.span) for r in naive_records)
        assert not any(r.span.overlaps(event.span)
                       for r in aware_records)

    def test_calendar_has_no_effect_inside_study_period(self, platform,
                                                        scenario):
        event = next(d for d in scenario.shutdowns
                     if d.country_iso2 == "SY"
                     and STUDY_PERIOD.contains(d.span.start))
        window = TimeRange(event.span.start - int(3.5 * DAY),
                           event.span.end + DAY)
        naive = CurationPipeline(platform).investigate(
            "SY", window, STUDY_PERIOD)
        aware = CurationPipeline(
            platform, calendar=IODA_CALENDAR).investigate(
                "SY", window, STUDY_PERIOD)
        assert [r.span for r in naive] == [r.span for r in aware]
