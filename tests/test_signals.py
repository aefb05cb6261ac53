"""Tests for the time-series and alert infrastructure."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SignalError, TimeRangeError
from repro.signals.alerts import Alert, DetectorConfig
from repro.signals.entities import Entity, EntityScope
from repro.signals.kinds import SignalKind
from repro.signals.series import TimeSeries
from repro.stream.detect import StreamingAlertDetector, \
    StreamingEpisodeGrouper
from repro.timeutils.timestamps import FIVE_MINUTES, HOUR, TEN_MINUTES, \
    TimeRange


def detect(config, series):
    """Every alert of a whole series, fed to the detector as one chunk."""
    detector = StreamingAlertDetector(config, series.width)
    return detector.feed(*series.arrays())


def group_alerts(alerts, bin_width, max_gap_bins=1):
    grouper = StreamingEpisodeGrouper(bin_width, max_gap_bins=max_gap_bins)
    return grouper.feed(alerts) + grouper.finalize()


class TestTimeSeries:
    def test_zeros_covers_span(self):
        series = TimeSeries.zeros(TimeRange(0, 1501), FIVE_MINUTES)
        assert len(series) == 6  # ceil(1501 / 300)
        assert series.end == 1800

    def test_alignment_enforced(self):
        with pytest.raises(TimeRangeError):
            TimeSeries(7, FIVE_MINUTES, [0.0])

    def test_index_and_timestamp_inverse(self):
        series = TimeSeries.zeros(TimeRange(600, 3600), FIVE_MINUTES)
        for index in range(len(series)):
            ts = series.timestamp_of(index)
            assert series.index_of(ts) == index

    def test_at_set_add(self):
        series = TimeSeries.zeros(TimeRange(0, 900), FIVE_MINUTES)
        series.set_at(301, 5.0)
        series.add_at(599, 2.0)
        assert series.at(300) == 7.0

    def test_out_of_range_access(self):
        series = TimeSeries.zeros(TimeRange(0, 900), FIVE_MINUTES)
        with pytest.raises(TimeRangeError):
            series.at(900)

    def test_slice(self):
        series = TimeSeries(0, FIVE_MINUTES, np.arange(12))
        sliced = series.slice(TimeRange(450, 1000))
        assert sliced.start == 300
        assert list(sliced.values) == [1, 2, 3]

    def test_slice_disjoint_raises(self):
        series = TimeSeries(0, FIVE_MINUTES, np.arange(4))
        with pytest.raises(TimeRangeError):
            series.slice(TimeRange(5000, 6000))

    def test_add_requires_alignment(self):
        a = TimeSeries(0, FIVE_MINUTES, [1.0, 2.0])
        b = TimeSeries(300, FIVE_MINUTES, [1.0, 2.0])
        with pytest.raises(SignalError):
            _ = a + b

    def test_add_and_scale(self):
        a = TimeSeries(0, FIVE_MINUTES, [1.0, 2.0])
        b = TimeSeries(0, FIVE_MINUTES, [10.0, 20.0])
        assert list((a + b).values) == [11.0, 22.0]
        assert list(a.scale(3).values) == [3.0, 6.0]

    def test_iteration_yields_bin_starts(self):
        series = TimeSeries(600, FIVE_MINUTES, [1.0, 2.0])
        assert list(series) == [(600, 1.0), (900, 2.0)]


class TestEntities:
    def test_country_entity(self):
        entity = Entity.country("sy")
        assert entity.identifier == "SY"
        assert entity.country_iso2 == "SY"

    def test_region_entity(self):
        entity = Entity.region("IN", "IN-REG03")
        assert entity.scope is EntityScope.REGION
        assert entity.country_iso2 == "IN"

    def test_asn_entity_has_no_country(self):
        assert Entity.asn(65001).country_iso2 is None

class TestSignalKinds:
    def test_bin_widths(self):
        assert SignalKind.BGP.bin_width == FIVE_MINUTES
        assert SignalKind.TELESCOPE.bin_width == FIVE_MINUTES
        assert SignalKind.ACTIVE_PROBING.bin_width == TEN_MINUTES


class TestAlertDetector:
    def _series_with_drop(self, baseline=100.0, drop_at=60, drop_len=6,
                          level=0.0, n=120):
        values = np.full(n, baseline)
        values[drop_at:drop_at + drop_len] = level
        return TimeSeries(0, FIVE_MINUTES, values)

    def test_detects_total_drop(self):
        config = DetectorConfig(
            threshold=0.99, history_seconds=24 * HOUR,
            min_history_fraction=0.1)
        series = self._series_with_drop()
        alerts = detect(config, series)
        assert [a.time for a in alerts] == \
            [60 * FIVE_MINUTES + i * FIVE_MINUTES for i in range(6)]
        assert alerts[0].baseline == 100.0

    def test_no_alerts_on_flat_series(self):
        config = DetectorConfig(
            threshold=0.99, history_seconds=HOUR,
            min_history_fraction=0.1)
        series = TimeSeries(0, FIVE_MINUTES, np.full(100, 50.0))
        assert detect(config, series) == []

    def test_threshold_respected(self):
        # 85% of baseline: alerts at threshold 0.99 but not at 0.80.
        series = self._series_with_drop(level=85.0)
        strict = DetectorConfig(
            threshold=0.99, history_seconds=HOUR,
            min_history_fraction=0.1)
        lax = DetectorConfig(
            threshold=0.80, history_seconds=HOUR,
            min_history_fraction=0.1)
        assert detect(strict, series)
        assert not detect(lax, series)

    def test_cold_start_suppressed(self):
        config = DetectorConfig(
            threshold=0.99, history_seconds=24 * HOUR,
            min_history_fraction=0.5)
        # Drop right at the beginning: not enough history yet.
        series = self._series_with_drop(drop_at=2, drop_len=2)
        assert all(a.time > 2 * FIVE_MINUTES for a in detect(config, series))

    def test_current_bin_excluded_from_baseline(self):
        config = DetectorConfig(
            threshold=0.99, history_seconds=HOUR,
            min_history_fraction=0.1)
        values = np.concatenate([np.full(50, 100.0), np.zeros(50)])
        series = TimeSeries(0, FIVE_MINUTES, values)
        alerts = detect(config, series)
        # The first down bin must alert against the pre-drop baseline.
        assert alerts[0].time == 50 * FIVE_MINUTES
        assert alerts[0].baseline == 100.0

    def test_config_validation(self):
        with pytest.raises(SignalError):
            DetectorConfig(threshold=0.0, history_seconds=HOUR)
        with pytest.raises(SignalError):
            DetectorConfig(threshold=0.5, history_seconds=0)

    def test_window_shorter_than_bin_rejected(self):
        config = DetectorConfig(
            threshold=0.5, history_seconds=60)
        with pytest.raises(SignalError):
            StreamingAlertDetector(config, FIVE_MINUTES)


class TestGroupAlerts:
    def _alert(self, time):
        return Alert(time=time, value=0.0, baseline=100.0)

    def test_empty(self):
        assert group_alerts([], FIVE_MINUTES) == []

    def test_contiguous_run_single_episode(self):
        alerts = [self._alert(300 * i) for i in range(5)]
        episodes = group_alerts(alerts, FIVE_MINUTES)
        assert len(episodes) == 1
        assert episodes[0].span == TimeRange(0, 1500)
        assert episodes[0].n_bins == 5

    def test_gap_splits_episodes(self):
        alerts = [self._alert(0), self._alert(300), self._alert(3000)]
        episodes = group_alerts(alerts, FIVE_MINUTES)
        assert len(episodes) == 2

    def test_single_bin_gap_absorbed(self):
        alerts = [self._alert(0), self._alert(600)]
        episodes = group_alerts(alerts, FIVE_MINUTES, max_gap_bins=1)
        assert len(episodes) == 1

    def test_depth(self):
        alerts = [Alert(time=0, value=25.0, baseline=100.0)]
        episode = group_alerts(alerts, FIVE_MINUTES)[0]
        assert episode.depth == pytest.approx(0.75)

    @given(st.lists(st.integers(min_value=0, max_value=500),
                    min_size=1, max_size=60, unique=True))
    def test_episodes_partition_alerts(self, bins):
        alerts = [self._alert(300 * b) for b in sorted(bins)]
        episodes = group_alerts(alerts, FIVE_MINUTES)
        assert sum(e.n_bins for e in episodes) == len(alerts)
        # Episodes are ordered and non-overlapping.
        for first, second in zip(episodes, episodes[1:]):
            assert first.span.end < second.span.start
