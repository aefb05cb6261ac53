"""Tests for the curation pipeline (§3.1.2 decision procedure)."""

from collections import Counter

import numpy as np
import pytest

import repro.api as api
from repro.io import record_to_dict
from repro.ioda.curation import CurationConfig, CurationPipeline
from repro.ioda.platform import IODAPlatform
from repro.ioda.records import ConfirmationStatus
from repro.obs.runtime import Observability
from repro.signals.entities import EntityScope
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import DAY, HOUR, TimeRange, utc
from repro.world.disruptions import Cause
from repro.world.scenario import STUDY_PERIOD, ScenarioConfig

from tests import oracles


@pytest.fixture(scope="module")
def pipeline(platform):
    return CurationPipeline(platform)


def window_for(pipeline, event):
    return TimeRange(event.span.start - pipeline.config.window_lead,
                     event.span.end + pipeline.config.window_tail)


class TestInvestigation:
    def test_total_shutdown_recorded_precisely(self, pipeline, scenario):
        event = next(e for e in scenario.shutdowns
                     if e.country_iso2 == "SY"
                     and STUDY_PERIOD.contains(e.span.start))
        records = pipeline.investigate(
            "SY", window_for(pipeline, event), STUDY_PERIOD)
        assert len(records) == 1
        record = records[0]
        # Start exactly on the ground-truth bin; end within one AP round.
        assert record.span.start == event.span.start
        assert abs(record.span.end - event.span.end) <= 600
        assert record.scope is EntityScope.COUNTRY
        assert record.visible_in_all_signals

    def test_exam_cause_attributed(self, pipeline, scenario):
        event = next(e for e in scenario.shutdowns
                     if e.cause is Cause.EXAM
                     and STUDY_PERIOD.contains(e.span.start))
        records = pipeline.investigate(
            event.country_iso2, window_for(pipeline, event), STUDY_PERIOD)
        causes = {r.cause for r in records}
        assert "Exam-related" in causes

    def test_quiet_window_produces_nothing(self, pipeline, scenario):
        quiet = TimeRange(STUDY_PERIOD.start, STUDY_PERIOD.start + 5 * DAY)
        # Japan is a STABLE archetype; verify no events in this window.
        assert not scenario.disruptions_in(quiet, country_iso2="JP")
        assert pipeline.investigate("JP", quiet, STUDY_PERIOD) == []

    def test_events_outside_period_not_recorded(self, pipeline, scenario):
        event = next(e for e in scenario.shutdowns
                     if e.span.start < STUDY_PERIOD.start - 30 * DAY
                     and e.scope is EntityScope.COUNTRY)
        records = pipeline.investigate(
            event.country_iso2, window_for(pipeline, event), STUDY_PERIOD)
        assert all(STUDY_PERIOD.contains(r.span.start) for r in records)

    def test_mobile_only_event_mostly_invisible(self, pipeline, scenario):
        events = [e for e in scenario.shutdowns
                  if e.mobile_only and e.scope is EntityScope.COUNTRY
                  and STUDY_PERIOD.contains(e.span.start)][:5]
        assert events
        recorded = 0
        for event in events:
            records = pipeline.investigate(
                event.country_iso2, window_for(pipeline, event),
                STUDY_PERIOD)
            recorded += sum(
                1 for r in records
                if r.span.overlaps(event.span)
                and r.scope is EntityScope.COUNTRY)
        assert recorded < len(events)

    def test_artifact_rejected_by_control_group(self, pipeline, scenario):
        artifact = scenario.artifacts[0]
        window = artifact.span.expand(
            before=pipeline.config.window_lead,
            after=pipeline.config.window_tail)
        # Pick a country with no real disruption overlapping the artifact.
        for iso2 in ("JP", "DE", "AU", "CA"):
            if not any(d.span.overlaps(window)
                       for d in scenario.disruptions_in(
                           STUDY_PERIOD, country_iso2=iso2)):
                break
        records = pipeline.investigate(iso2, window, STUDY_PERIOD)
        overlapping = [r for r in records
                       if r.span.overlaps(artifact.span)]
        assert not overlapping

    def test_region_scope_descent(self, pipeline, scenario):
        event = next(e for e in scenario.shutdowns
                     if e.scope is EntityScope.REGION
                     and not e.mobile_only
                     and STUDY_PERIOD.contains(e.span.start))
        records = pipeline.investigate(
            event.country_iso2, window_for(pipeline, event), STUDY_PERIOD)
        region_records = [r for r in records
                          if r.scope is EntityScope.REGION]
        assert region_records
        assert any(event.region_name in r.region_names
                   for r in region_records)


class TestFullRun:
    def test_full_run_summary(self, pipeline_result, scenario):
        records = pipeline_result.curated_records
        country_scope = [r for r in records
                         if r.scope is EntityScope.COUNTRY]
        # Detection covers the large majority of country-level truth.
        truth = [d for d in scenario.disruptions_in(STUDY_PERIOD)
                 if d.scope is EntityScope.COUNTRY and not d.mobile_only]
        assert len(country_scope) > 0.75 * len(truth)
        # Everything recorded lies in the study period.
        assert all(STUDY_PERIOD.contains(r.span.start) for r in records)
        # Record ids unique.
        ids = [r.record_id for r in records]
        assert len(ids) == len(set(ids))

    def test_recorded_spans_match_some_truth(self, pipeline_result,
                                             scenario):
        """Curated records should not hallucinate: nearly all overlap a
        ground-truth disruption."""
        records = [r for r in pipeline_result.curated_records
                   if r.scope is EntityScope.COUNTRY]
        spurious = 0
        for record in records:
            overlapping = [
                d for d in scenario.all_disruptions()
                if d.country_iso2 == record.country_iso2
                and d.span.overlaps(record.span.expand(
                    before=HOUR, after=HOUR))]
            if not overlapping:
                spurious += 1
        assert spurious / len(records) < 0.05

    def test_causes_attributed_with_expected_coverage(self,
                                                      pipeline_result):
        records = [r for r in pipeline_result.curated_records
                   if r.scope is EntityScope.COUNTRY]
        with_cause = sum(1 for r in records if r.cause is not None)
        assert 0.4 < with_cause / len(records) < 0.95

    def test_confirmation_statuses_consistent(self, pipeline_result):
        for record in pipeline_result.curated_records:
            if record.cause is not None:
                assert record.confirmation is ConfirmationStatus.CONFIRMED

    def test_config_exposed(self, pipeline):
        assert isinstance(pipeline.config, CurationConfig)
        assert pipeline.config.human_depth[SignalKind.TELESCOPE] == 0.5


class TestLazyDescent:
    """Region descent stops pulling a region's signals once two
    qualifying kinds are out of reach.  It must record exactly what the
    full descent (every kind, always) records, with the same capsules."""

    PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 4, 1))

    @staticmethod
    def _run(seed):
        """Records, capsule ids and per-kind signal calls of one run."""
        calls = Counter()
        signal = IODAPlatform.signal

        def counted(self, entity, kind, window):
            calls[kind] += 1
            return signal(self, entity, kind, window)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(IODAPlatform, "signal", counted)
            result = api.run(
                scenario_config=ScenarioConfig(seed=seed, years=(2018,)),
                study_period=TestLazyDescent.PERIOD, workers=1,
                backend="serial",
                observability=Observability(provenance=True))
        return ([record_to_dict(r) for r in result.curated_records],
                [c["capsule_id"] for c in result.provenance], calls)

    @pytest.mark.parametrize("seed", [2023, 7])
    def test_matches_full_descent(self, seed, monkeypatch):
        records, capsules, calls = self._run(seed)
        monkeypatch.setattr(CurationPipeline, "_region_episodes",
                            oracles.region_episodes)
        full_records, full_capsules, full_calls = self._run(seed)
        assert any(r["scope"] == EntityScope.REGION.value
                   for r in records)
        assert records == full_records
        assert capsules == full_capsules
        # Only the telescope is ever skipped, and here it was.
        assert calls[SignalKind.BGP] == full_calls[SignalKind.BGP]
        assert calls[SignalKind.ACTIVE_PROBING] \
            == full_calls[SignalKind.ACTIVE_PROBING]
        assert calls[SignalKind.TELESCOPE] \
            < full_calls[SignalKind.TELESCOPE]
