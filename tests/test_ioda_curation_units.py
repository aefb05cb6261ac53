"""Unit tests for curation internals: clustering, anchoring, windows.

The integration tests exercise these through whole investigations; these
tests pin down the component behaviors directly with synthetic episodes.
"""

import itertools

import numpy as np
import pytest

from repro.ioda.curation import CurationConfig, CurationPipeline
from repro.ioda.platform import IODAPlatform
from repro.obs.provenance import DrawCursor
from repro.signals.alerts import AlertEpisode
from repro.signals.entities import Entity
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import DAY, HOUR, TimeRange
from repro.world.scenario import STUDY_PERIOD


@pytest.fixture(scope="module")
def pipeline(platform):
    return CurationPipeline(platform)


def episode(start, end, depth=1.0, n_bins=None, baseline=100.0):
    if n_bins is None:
        n_bins = max(1, (end - start) // 300)
    return AlertEpisode(
        span=TimeRange(start, end),
        min_value=baseline * (1.0 - depth),
        baseline=baseline,
        n_bins=n_bins)


class TestClustering:
    def test_empty_input(self, pipeline):
        assert pipeline._cluster({kind: [] for kind in SignalKind}) == []

    def test_overlapping_episodes_cluster(self, pipeline):
        episodes = {
            SignalKind.BGP: [episode(0, HOUR)],
            SignalKind.ACTIVE_PROBING: [episode(600, HOUR + 600)],
            SignalKind.TELESCOPE: [],
        }
        candidates = pipeline._cluster(episodes)
        assert len(candidates) == 1
        assert candidates[0].span == TimeRange(0, HOUR + 600)

    def test_distant_episodes_split(self, pipeline):
        gap = pipeline.config.cluster_gap
        episodes = {
            SignalKind.BGP: [episode(0, HOUR),
                             episode(HOUR + gap + 600,
                                     2 * HOUR + gap + 600)],
            SignalKind.ACTIVE_PROBING: [],
            SignalKind.TELESCOPE: [],
        }
        candidates = pipeline._cluster(episodes)
        assert len(candidates) == 2

    def test_chain_extends_cluster(self, pipeline):
        gap = pipeline.config.cluster_gap
        episodes = {
            SignalKind.BGP: [episode(0, HOUR)],
            SignalKind.TELESCOPE: [
                episode(HOUR + gap - 300, HOUR + gap),
                episode(HOUR + 2 * gap - 600, HOUR + 2 * gap)],
            SignalKind.ACTIVE_PROBING: [],
        }
        candidates = pipeline._cluster(episodes)
        assert len(candidates) == 1


class TestAnchoring:
    def test_shallow_flicker_discarded(self, pipeline):
        margin = pipeline.config.anchor_margin
        visible = {
            SignalKind.BGP: [episode(10 * HOUR, 12 * HOUR, depth=1.0)],
            SignalKind.TELESCOPE: [
                episode(10 * HOUR, 12 * HOUR, depth=0.9),
                episode(0, 1800, depth=0.6),  # hours before the anchor
            ],
        }
        anchored = pipeline._anchor_overlapping(visible)
        assert len(anchored[SignalKind.TELESCOPE]) == 1
        assert anchored[SignalKind.TELESCOPE][0].span.start == 10 * HOUR

    def test_signal_with_only_distant_episodes_dropped(self, pipeline):
        visible = {
            SignalKind.BGP: [episode(10 * HOUR, 12 * HOUR, depth=1.0)],
            SignalKind.TELESCOPE: [episode(0, 1800, depth=0.7)],
        }
        anchored = pipeline._anchor_overlapping(visible)
        assert SignalKind.TELESCOPE not in anchored
        assert SignalKind.BGP in anchored

    def test_empty(self, pipeline):
        assert pipeline._anchor_overlapping({}) == {}

    def test_within_margin_kept(self, pipeline):
        margin = pipeline.config.anchor_margin
        visible = {
            SignalKind.BGP: [episode(10 * HOUR, 12 * HOUR, depth=1.0)],
            SignalKind.ACTIVE_PROBING: [
                episode(12 * HOUR + margin - 300,
                        12 * HOUR + margin + 300, depth=0.5)],
        }
        anchored = pipeline._anchor_overlapping(visible)
        assert SignalKind.ACTIVE_PROBING in anchored


class TestWindowMerging:
    def test_overlapping_triggers_merge(self, pipeline):
        spans = [TimeRange(STUDY_PERIOD.start + 10 * DAY,
                           STUDY_PERIOD.start + 10 * DAY + HOUR),
                 TimeRange(STUDY_PERIOD.start + 10 * DAY + 2 * HOUR,
                           STUDY_PERIOD.start + 10 * DAY + 3 * HOUR)]
        merged = pipeline._merge_windows(spans, STUDY_PERIOD)
        assert len(merged) == 1

    def test_distant_triggers_stay_separate(self, pipeline):
        spans = [TimeRange(STUDY_PERIOD.start + 10 * DAY,
                           STUDY_PERIOD.start + 10 * DAY + HOUR),
                 TimeRange(STUDY_PERIOD.start + 60 * DAY,
                           STUDY_PERIOD.start + 60 * DAY + HOUR)]
        merged = pipeline._merge_windows(spans, STUDY_PERIOD)
        assert len(merged) == 2

    def test_lead_clipped_at_period_edge(self, pipeline):
        spans = [TimeRange(STUDY_PERIOD.start + HOUR,
                           STUDY_PERIOD.start + 2 * HOUR)]
        merged = pipeline._merge_windows(spans, STUDY_PERIOD)
        lead = pipeline.config.window_lead
        assert merged[0].start >= STUDY_PERIOD.start - lead

    def test_windows_include_history_lead(self, pipeline):
        span = TimeRange(STUDY_PERIOD.start + 30 * DAY,
                         STUDY_PERIOD.start + 30 * DAY + HOUR)
        merged = pipeline._merge_windows([span], STUDY_PERIOD)
        assert merged[0].start == span.start - pipeline.config.window_lead
        assert merged[0].end == span.end + pipeline.config.window_tail


class TestControlGroup:
    def test_controls_exclude_home_region(self, pipeline, scenario):
        controls = pipeline._control_countries("SY")
        assert "SY" not in controls
        home_region = scenario.registry.get("SY").region
        regions = [scenario.registry.get(c).region for c in controls]
        assert home_region not in regions
        # One control per region, all distinct.
        assert len(set(regions)) == len(regions)

    def test_control_count(self, pipeline):
        controls = pipeline._control_countries("SY")
        assert len(controls) == pipeline.config.n_controls


class _CountingDashboard:
    """Stands in for the dashboard: canned episodes per (entity
    identifier, kind), and a log of every (identifier, kind) asked for."""

    def __init__(self, canned):
        self._canned = canned
        self.asked = []

    def episodes(self, entity, kind, window):
        self.asked.append((entity.identifier, kind))
        return list(self._canned.get((entity.identifier, kind), ()))


class TestRegionDescent:
    WINDOW = TimeRange(STUDY_PERIOD.start + 10 * DAY,
                       STUDY_PERIOD.start + 14 * DAY)

    @staticmethod
    def _regions(platform):
        return [Entity.region("SY", r.name).identifier
                for r in platform.scenario.topology.get("SY").regions]

    def _descend(self, platform, canned):
        # A window with no country candidate falls through to the
        # region views.
        pipeline = CurationPipeline(platform)
        dashboard = pipeline._dashboard = _CountingDashboard(canned)
        records = list(pipeline.adjudicate_window(
            "SY", self.WINDOW, STUDY_PERIOD, {}, np.random.default_rng(0),
            itertools.count(1), DrawCursor()).records)
        return records, dashboard.asked

    def test_no_qualifying_bgp_or_probing_skips_telescope(self, platform):
        drop = self.WINDOW.start + 2 * DAY
        canned = {}
        for region in self._regions(platform):
            # Too shallow for BGP, too short for probing: neither
            # qualifies, so no two-signal record is reachable.
            canned[region, SignalKind.BGP] = [
                episode(drop, drop + HOUR, depth=0.05)]
            canned[region, SignalKind.ACTIVE_PROBING] = [
                episode(drop, drop + HOUR, n_bins=1)]
            canned[region, SignalKind.TELESCOPE] = [
                episode(drop, drop + HOUR)]
        records, asked = self._descend(platform, canned)
        assert records == []
        assert asked == [(region, kind)
                         for region in self._regions(platform)
                         for kind in (SignalKind.BGP,
                                      SignalKind.ACTIVE_PROBING)]

    def test_qualifying_bgp_pulls_every_kind(self, platform):
        first, *rest = self._regions(platform)
        drop = self.WINDOW.start + 2 * DAY
        records, asked = self._descend(platform, {
            (first, SignalKind.BGP): [episode(drop, drop + HOUR)]})
        assert records == []
        assert asked[:3] == [(first, kind) for kind in SignalKind]
        assert asked[3:] == [(region, kind) for region in rest
                             for kind in (SignalKind.BGP,
                                          SignalKind.ACTIVE_PROBING)]
