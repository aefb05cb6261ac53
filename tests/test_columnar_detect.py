"""Bitwise equivalence of the columnar detection core and its scalar
reference implementations.

The columnar paths (``trailing_median``, ``AlertDetector.detect``,
``group_alerts``, ``ActiveProbingRun.up_count_series``) must produce
*bitwise-identical* output to the per-bin/per-round reference code they
replace — not merely approximately equal.  These tests drive both paths
over randomized series covering every detector configuration, missing
history prefixes, threshold-boundary ties, and the scalar escape hatch
(``REPRO_SCALAR_DETECT=1``), and assert exact equality end to end.
"""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.flags import SCALAR_DETECT_ENV
from repro.ioda.detectors import DETECTOR_CONFIGS, detector_for
from repro.probing.blocks import ProbedBlock
from repro.probing.scheduler import ActiveProbingRun
from repro.signals.alerts import Alert, AlertDetector, DetectorConfig, \
    group_alerts, group_alerts_scalar
from repro.signals.kinds import SignalKind
from repro.signals.series import TimeSeries
from repro.stats.rolling import rolling_median, trailing_median
from repro.timeutils.timestamps import FIVE_MINUTES, TimeRange, utc


def _random_series(rng, n, width=FIVE_MINUTES):
    """A plausibly signal-shaped series: positive level plus noise,
    with some dips and quantized stretches that produce median ties."""
    base = rng.uniform(50, 5000)
    values = base + rng.normal(0, base * 0.05, size=n)
    # Quantize a stretch so the window holds repeated values (ties).
    k = n // 3
    values[k:2 * k] = np.round(values[k:2 * k])
    # Carve a couple of drops below every threshold.
    for _ in range(rng.integers(1, 4)):
        at = int(rng.integers(0, max(1, n - 10)))
        depth = rng.uniform(0.0, 1.0)
        values[at:at + int(rng.integers(1, 10))] *= depth
    return np.maximum(values, 0.0)


class TestTrailingMedian:
    def test_matches_rolling_median_randomized(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(2, 400))
            window = int(rng.integers(1, 80))
            values = _random_series(rng, n)
            got = trailing_median(values, window)
            want = rolling_median(values, window)
            assert np.isnan(got[0])
            for i in range(1, n):
                assert got[i] == want[i], (trial, i, n, window)

    def test_first_skips_warmup_exactly(self):
        rng = np.random.default_rng(8)
        values = _random_series(rng, 300)
        full = trailing_median(values, 50)
        skipped = trailing_median(values, 50, first=40)
        assert np.all(np.isnan(skipped[:40]))
        assert np.array_equal(skipped[40:], full[40:])

    def test_detector_shaped_windows(self):
        """The three real detector windows, including one wider than
        the series (telescope over a short window)."""
        rng = np.random.default_rng(9)
        for window in (288, 1008, 2016):
            values = _random_series(rng, 600)
            got = trailing_median(values, window)
            want = rolling_median(values, window)
            assert all(
                got[i] == want[i] for i in range(1, len(values)))

    def test_constant_series(self):
        got = trailing_median(np.full(100, 42.0), 24)
        assert np.isnan(got[0])
        assert np.all(got[1:] == 42.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SignalError):
            trailing_median(np.ones(10), 0)
        with pytest.raises(SignalError):
            trailing_median(np.ones((5, 2)), 3)


class TestDetectorEquivalence:
    @pytest.mark.parametrize("kind", list(SignalKind))
    def test_detect_matches_scalar_on_all_configs(self, kind):
        rng = np.random.default_rng(hash(kind.value) % 2**32)
        detector = detector_for(kind)
        width = FIVE_MINUTES if kind is not SignalKind.ACTIVE_PROBING \
            else 2 * FIVE_MINUTES
        for n in (2, 5, 50, 700, 3000):
            series = TimeSeries(0, width, _random_series(rng, n, width))
            assert detector.detect(series) \
                == detector.detect_scalar(series), (kind, n)

    def test_threshold_boundary_ties_are_not_alerts(self):
        """value == threshold * baseline must not alert on either path
        (the comparison is strict)."""
        config = DetectorConfig(threshold=0.5, history_seconds=FIVE_MINUTES,
                                min_history_fraction=1.0)
        detector = AlertDetector(config)
        # Baseline is always 100 (window of one trailing bin), so a
        # value of exactly 50 sits on the boundary.
        series = TimeSeries(0, FIVE_MINUTES,
                            [100.0, 50.0, 100.0, 49.0, 100.0])
        vec, scalar = detector.detect(series), detector.detect_scalar(series)
        assert vec == scalar
        assert [a.value for a in vec] == [49.0]

    def test_short_series_produces_no_alerts(self):
        detector = detector_for(SignalKind.TELESCOPE)
        series = TimeSeries(0, FIVE_MINUTES, [10.0, 0.0])
        assert detector.detect(series) == detector.detect_scalar(series) \
            == []

    def test_scalar_env_flag_routes_to_reference(self, monkeypatch):
        calls = []
        detector = detector_for(SignalKind.BGP)
        original = AlertDetector.detect_scalar
        monkeypatch.setattr(
            AlertDetector, "detect_scalar",
            lambda self, series: calls.append(1) or original(self, series))
        monkeypatch.setenv(SCALAR_DETECT_ENV, "1")
        detector.detect(TimeSeries(0, FIVE_MINUTES, np.full(600, 7.0)))
        assert calls


class TestGroupAlertsEquivalence:
    def _alerts(self, rng, n, width):
        times = np.sort(rng.choice(
            np.arange(n) * width, size=int(rng.integers(1, n)),
            replace=False))
        return [Alert(time=int(t), value=float(rng.uniform(0, 50)),
                      baseline=100.0) for t in times]

    def test_matches_scalar_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            alerts = self._alerts(rng, 200, FIVE_MINUTES)
            gap = int(rng.integers(0, 4))
            assert group_alerts(alerts, FIVE_MINUTES, max_gap_bins=gap) \
                == group_alerts_scalar(alerts, FIVE_MINUTES,
                                       max_gap_bins=gap)

    def test_empty_and_single(self):
        assert group_alerts([], FIVE_MINUTES) == []
        one = [Alert(time=300, value=1.0, baseline=10.0)]
        assert group_alerts(one, FIVE_MINUTES) \
            == group_alerts_scalar(one, FIVE_MINUTES)

    @pytest.mark.parametrize("grouper", [group_alerts, group_alerts_scalar])
    def test_negative_max_gap_rejected(self, grouper):
        alerts = [Alert(time=0, value=1.0, baseline=10.0)]
        with pytest.raises(SignalError, match="max gap"):
            grouper(alerts, FIVE_MINUTES, max_gap_bins=-1)

    @pytest.mark.parametrize("grouper", [group_alerts, group_alerts_scalar])
    def test_nonpositive_bin_width_rejected(self, grouper):
        with pytest.raises(SignalError, match="bin width"):
            grouper([], 0)


class TestProbingEquivalence:
    def _run(self, rng, n_blocks):
        blocks = [
            ProbedBlock(slash24=int(i),
                        response_rate=float(rng.uniform(0.15, 0.95)))
            for i in range(n_blocks)]
        return ActiveProbingRun(blocks)

    def test_up_count_series_matches_scalar(self):
        rng = np.random.default_rng(13)
        window = TimeRange(utc(2019, 1, 1), utc(2019, 1, 3))
        for trial in range(5):
            run = self._run(rng, int(rng.integers(3, 60)))
            n_rounds = (window.end - window.start) // 600
            up = rng.uniform(0.0, 1.0, size=n_rounds)
            seed = int(rng.integers(2**31))
            vec = run.up_count_series(
                window, up, np.random.default_rng(seed))
            scalar = run.up_count_series_scalar(
                window, up, np.random.default_rng(seed))
            assert vec.start == scalar.start
            assert vec.width == scalar.width
            assert vec.values.tobytes() == scalar.values.tobytes(), trial

    def test_scalar_env_flag_dispatches(self, monkeypatch):
        rng = np.random.default_rng(17)
        run = self._run(rng, 5)
        window = TimeRange(utc(2019, 1, 1), utc(2019, 1, 2))
        up = np.ones((window.end - window.start) // 600)
        monkeypatch.setenv(SCALAR_DETECT_ENV, "1")
        flagged = run.up_count_series(window, up, np.random.default_rng(3))
        reference = run.up_count_series_scalar(
            window, up, np.random.default_rng(3))
        assert flagged.values.tobytes() == reference.values.tobytes()


class TestSeriesArrayAPI:
    def test_arrays_roundtrip_through_from_arrays(self):
        series = TimeSeries(600, FIVE_MINUTES, [1.0, 2.0, 3.0])
        rebuilt = TimeSeries.from_arrays(*series.arrays())
        assert rebuilt.start == series.start
        assert rebuilt.width == series.width
        assert np.array_equal(rebuilt.values, series.values)

    def test_arrays_values_are_live_view(self):
        series = TimeSeries(0, FIVE_MINUTES, [1.0, 2.0])
        _, values = series.arrays()
        values[0] = 99.0
        assert series.at(0) == 99.0

    def test_bin_starts_match_iteration(self):
        series = TimeSeries(300, FIVE_MINUTES, [5.0, 6.0, 7.0])
        assert list(series.bin_starts) == [ts for ts, _ in series]

    def test_from_arrays_rejects_bad_columns(self):
        with pytest.raises(SignalError, match="at least two"):
            TimeSeries.from_arrays(np.array([0]), np.array([1.0]))
        with pytest.raises(SignalError, match="evenly spaced"):
            TimeSeries.from_arrays(np.array([0, 300, 900]), np.ones(3))
        with pytest.raises(SignalError, match="evenly spaced"):
            TimeSeries.from_arrays(np.array([600, 300]), np.ones(2))
        with pytest.raises(SignalError, match="length"):
            TimeSeries.from_arrays(np.array([0, 300]), np.ones(3))


class TestPipelineByteIdentity:
    """The whole pipeline — signals, detection, curation, merge — must
    be byte-identical with the columnar paths on and off, on every
    executor backend."""

    @pytest.fixture(scope="class")
    def small_run(self):
        import repro.api as api
        from repro.world.scenario import ScenarioConfig
        config = ScenarioConfig(seed=11, years=(2019,))
        period = TimeRange(utc(2019, 1, 1), utc(2019, 5, 1))
        kwargs = dict(scenario_config=config, study_period=period)
        return kwargs, api.run(**kwargs)

    @staticmethod
    def _record_bytes(result):
        import json
        from repro import io
        return json.dumps(
            [io.record_to_dict(r) for r in result.curated_records],
            sort_keys=True)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_scalar_flag_does_not_change_output(self, small_run, backend,
                                                monkeypatch):
        import repro.api as api
        kwargs, columnar = small_run
        monkeypatch.setenv(SCALAR_DETECT_ENV, "1")
        scalar = api.run(
            workers=1 if backend == "serial" else 2, backend=backend,
            **kwargs)
        assert self._record_bytes(scalar) == self._record_bytes(columnar)
        assert len(scalar.kio_events) == len(columnar.kio_events)

    def test_flag_off_matches_across_backends(self, small_run):
        import repro.api as api
        kwargs, columnar = small_run
        parallel = api.run(workers=2, backend="thread", **kwargs)
        assert self._record_bytes(parallel) == self._record_bytes(columnar)
