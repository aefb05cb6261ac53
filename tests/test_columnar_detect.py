"""Bitwise equivalence of the columnar detection core and its reference
implementations.

The columnar paths (``trailing_median_at``, :class:`StreamingAlertDetector`,
:class:`StreamingEpisodeGrouper`, ``ActiveProbingRun.up_count_series``,
``visible_slash24_series``) must produce *bitwise-identical* output to the
per-bin, per-alert, per-round and per-cell references in
:mod:`tests.oracles` — not merely approximately equal.  These tests
drive both over randomized series covering every detector
configuration, random chunkings, missing history prefixes and
threshold-boundary ties, over random substrate inputs, and then run a
whole curation, batch and streamed, with the references standing in for
production.
"""

import json
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.api as api
import repro.ioda.dashboard as dashboard
import repro.ioda.platform as platform
import repro.rng
import repro.stream.engine as engine
from repro import io
from repro.bgp.view import visible_slash24_series
from repro.errors import SignalError
from repro.ioda.detectors import DETECTOR_CONFIGS
from repro.probing.scheduler import ActiveProbingRun
from repro.probing.trinocular import TrinocularConfig, TrinocularInference
from repro.signals.alerts import Alert, DetectorConfig
from repro.signals.kinds import SignalKind
from repro.signals.series import TimeSeries
from repro.stats import rolling
from repro.stats.rolling import TrailingMedianStream, trailing_median_at
from repro.stream.detect import StreamingAlertDetector, \
    StreamingEpisodeGrouper
from repro.timeutils.timestamps import DAY, FIVE_MINUTES, TimeRange, utc
from repro.world.scenario import ScenarioConfig

from tests import oracles
from tests.oracles import rolling_median


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


def _detect_in_chunks(series, config, cuts=()):
    """The production detector fed ``series`` split at ``cuts``."""
    detector = StreamingAlertDetector(config, series.width)
    bin_starts, values = series.arrays()
    bounds = [0, *sorted(cuts), len(values)]
    alerts = []
    for lo, hi in zip(bounds, bounds[1:]):
        alerts.extend(detector.feed(bin_starts[lo:hi], values[lo:hi]))
    return alerts


def group_alerts_streaming(alerts, bin_width, max_gap_bins=1, cuts=()):
    """The production grouper fed ``alerts`` split at ``cuts``."""
    grouper = StreamingEpisodeGrouper(bin_width, max_gap_bins=max_gap_bins)
    bounds = [0, *sorted(cuts), len(alerts)]
    episodes = []
    for lo, hi in zip(bounds, bounds[1:]):
        episodes.extend(grouper.feed(alerts[lo:hi]))
    return episodes + grouper.finalize()


def _oracle(values, window):
    """Every trailing median of ``values`` by :func:`rolling_median`,
    as float64 (NaN at position 0)."""
    return np.array(rolling_median(values, window), dtype=np.float64)


def _bitwise_equal(got, want):
    return np.array_equal(np.asarray(got).view(np.int64),
                          np.asarray(want).view(np.int64))


class TestTrailingMedian:
    def test_matches_rolling_median_randomized(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            n = int(rng.integers(2, 400))
            window = int(rng.integers(1, 80))
            values = _random_series(rng, n)
            got = trailing_median_at(values, window, np.arange(n))
            want = rolling_median(values, window)
            assert np.isnan(got[0])
            for i in range(1, n):
                assert got[i] == want[i], (trial, i, n, window)

    def test_first_skips_warmup_exactly(self):
        """Asking only for the positions past a warm-up gives the same
        bits there as asking for every position."""
        rng = np.random.default_rng(8)
        values = _random_series(rng, 300)
        full = trailing_median_at(values, 50, np.arange(300))
        skipped = trailing_median_at(values, 50, np.arange(40, 300))
        assert _bitwise_equal(skipped, full[40:])
        assert _bitwise_equal(skipped, _oracle(values, 50)[40:])

    def test_detector_shaped_windows(self):
        """The three real detector windows, including one wider than
        the series (telescope over a short window)."""
        rng = np.random.default_rng(9)
        for window in (288, 1008, 2016):
            values = _random_series(rng, 600)
            got = trailing_median_at(values, window, np.arange(600))
            want = rolling_median(values, window)
            assert all(
                got[i] == want[i] for i in range(1, len(values)))

    def test_constant_series(self):
        got = trailing_median_at(np.full(100, 42.0), 24, np.arange(100))
        assert np.isnan(got[0])
        assert np.all(got[1:] == 42.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SignalError):
            trailing_median_at(np.ones(10), 0, [1])
        with pytest.raises(SignalError):
            trailing_median_at(np.ones((5, 2)), 3, [1])
        with pytest.raises(SignalError, match="out of range"):
            trailing_median_at(np.ones(10), 3, [10])

    def test_sparse_positions_overflow_like_the_columnar_path(self):
        values = np.array([1e308, 1.1e308, 1.2e308, 1e308, 1.3e308])
        want = np.array([np.nan, np.inf, np.inf, np.inf, np.inf])
        dense = np.resize(np.arange(5), rolling._SPARSE_ROWS + 1)
        for got in (trailing_median_at(values, 3, dense)[:5],
                    trailing_median_at(values, 3, np.arange(5))):
            assert _bitwise_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(min_value=8.0e307, max_value=1.79e308),
                           min_size=1, max_size=60),
           window=st.integers(1, 12), data=st.data())
    def test_sparse_positions_bitwise_near_the_float_limit(
            self, values, window, data):
        v = np.array(values)
        idx = np.array(data.draw(st.lists(
            st.integers(0, len(v) - 1), min_size=1,
            max_size=rolling._SPARSE_ROWS)))
        got = trailing_median_at(v, window, idx)
        want = rolling._wavelet_medians(v, window, idx)
        assert _bitwise_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(min_value=8.0e307, max_value=1.79e308),
                           min_size=2, max_size=60),
           window=st.integers(1, 12))
    def test_rolling_median_bitwise_near_the_float_limit(self, values,
                                                         window):
        """The reference averages the central pair for odd counts too,
        so it overflows to inf exactly where the kernel does."""
        v = np.array(values)
        got = _oracle(values, window)[1:]
        want = rolling._wavelet_medians(v, window, np.arange(1, len(v)))
        assert _bitwise_equal(got, want)

    @settings(max_examples=80, deadline=None)
    @given(window=st.one_of(st.sampled_from([288, 1008, 2016]),
                            st.integers(1, 60)),
           kind=st.sampled_from(["noisy", "quantized", "ties", "drops",
                                 "zeros"]),
           prefix=st.booleans(),
           density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_dense_positions_match_rolling_median(self, window, kind,
                                                  prefix, density, seed):
        """Position subsets dense enough for the kernel — always with
        position 0 and the last bin, in any order, repeats allowed — on
        series no longer than the window (every window a prefix) and
        longer than it."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, window + 1) if prefix
                else rng.integers(window + 1, 3 * window + 100))
        values = _stream_values(rng, kind, n,
                                rng.integers(0, n, size=3).tolist())
        idx = np.flatnonzero(rng.random(n) < density)
        extra = max(0, rolling._SPARSE_ROWS + 1 - idx.size - 2)
        idx = np.concatenate([[0, n - 1], idx,
                              rng.integers(0, n, size=extra)])
        rng.shuffle(idx)
        assert idx.size > rolling._SPARSE_ROWS
        got = trailing_median_at(values, window, idx)
        assert _bitwise_equal(got, _oracle(values, window)[idx])

    @pytest.mark.parametrize("window", [2016, 50_000])
    def test_more_distinct_values_than_int16_ranks(self, window):
        """Past 32,767 distinct values the kernel's ranks need a wider
        integer; sliding and prefix windows stay exact."""
        rng = np.random.default_rng(12)
        values = np.abs(rng.normal(1000.0, 50.0, 40_000))
        assert np.unique(values).size > np.iinfo(np.int16).max
        idx = np.concatenate([[0, 39_999], rng.integers(0, 40_000, 3000)])
        got = trailing_median_at(values, window, idx)
        assert _bitwise_equal(got, _oracle(values, window)[idx])


def _stream_values(rng, kind, n, chunk_starts=()):
    """Non-negative series shapes a detector window sees (no -0.0:
    equal zeros of either sign are interchangeable to a rank-select,
    not to a bitwise compare)."""
    if kind == "noisy":
        return np.abs(rng.normal(1000.0, 50.0, n))
    if kind == "quantized":
        return np.round(np.abs(rng.normal(20.0, 4.0, n)))
    if kind == "ties":
        return rng.integers(0, 4, n).astype(np.float64)
    if kind == "drops":
        # Outage-shaped: level shifts far below (or above) every value
        # still in the trailing window, starting with a chunk.
        values = np.abs(rng.normal(1000.0, 50.0, n))
        for at in chunk_starts:
            if rng.random() < 0.5:
                values[at:at + int(rng.integers(1, 200))] *= rng.choice(
                    [rng.uniform(0.0, 0.3), rng.uniform(2.0, 4.0)])
        return values
    return np.where(rng.random(n) < 0.7, 0.0,
                    rng.poisson(3.0, n).astype(np.float64))


def _stream_medians(window, values, bounds, positions):
    """``TrailingMedianStream`` fed ``values`` split at ``bounds``; at
    each chunk, the medians at ``positions(chunk_length)``, checked
    bitwise against the whole-series :func:`rolling_median`."""
    want = _oracle(values, window)
    stream = TrailingMedianStream(window)
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = values[lo:hi]
        idx = positions(hi - lo)
        got = stream.medians_at(chunk, idx)
        assert np.array_equal(got.view(np.int64),
                              want[lo + idx].view(np.int64)), (lo, hi)
        stream.push(chunk)


class TestTrailingMedianStream:
    @settings(max_examples=60, deadline=None)
    @given(window=st.one_of(st.sampled_from([288, 1008, 2016]),
                            st.integers(1, 60)),
           kind=st.sampled_from(["noisy", "quantized", "ties", "drops",
                                 "zeros"]),
           warmup=st.floats(0.0, 1.5),
           steps=st.lists(st.one_of(st.integers(1, 20),
                                    st.integers(1, 150),
                                    st.integers(1, 4000)),
                          min_size=1, max_size=10),
           seed=st.integers(0, 2**32 - 1))
    def test_medians_at_matches_trailing_median(self, window, kind, warmup,
                                                steps, seed):
        """Any warm-up (a tail shorter than the window, or a first chunk
        longer than it), then replay-sized steps or chunks longer than
        the window, at unsorted and repeated positions."""
        rng = np.random.default_rng(seed)
        bounds = np.cumsum([0, max(1, int(warmup * window)), *steps])
        values = _stream_values(rng, kind, int(bounds[-1]), bounds[1:-1])
        _stream_medians(window, values, bounds, lambda m: rng.integers(
            0, m, size=int(rng.integers(1, 2 * m + 1))))

    @pytest.mark.parametrize("window", [288, 1008, 2016])
    def test_both_sides_of_the_tail_select_budget(self, window, monkeypatch):
        """Steps just inside the sorted-tail kernel's work budget take
        it, one bin longer fall back to the columnar path, and both
        match the batch medians after a full window."""
        last = max(l for l in range(window + 1)
                   if rolling._tail_select_pays(window, window, l))
        assert not rolling._tail_select_pays(window, window, last + 1)
        calls = []
        kernel = rolling._tail_rank_select
        monkeypatch.setattr(rolling, "_tail_rank_select",
                            lambda *args: calls.append(1) or kernel(*args))
        rng = np.random.default_rng(window)
        for step, takes_kernel in ((last + 1, True), (last + 2, False)):
            calls.clear()
            values = _stream_values(rng, "quantized", window + 4 * step)
            _stream_medians(window, values,
                            [0, window, *range(window + step,
                                               len(values) + 1, step)],
                            np.arange)
            assert len(calls) == (4 if takes_kernel else 0), step

    def test_nan_values_rank_like_the_columnar_path(self):
        rng = np.random.default_rng(3)
        values = _stream_values(rng, "noisy", 700)
        values[rng.integers(0, 700, 40)] = np.nan
        want = trailing_median_at(values, 288, np.arange(700))
        stream = TrailingMedianStream(288)
        for lo in range(0, 700, 25):
            chunk = values[lo:lo + 25]
            idx = np.arange(len(chunk))
            np.testing.assert_array_equal(stream.medians_at(chunk, idx),
                                          want[lo + idx])
            stream.push(chunk)

    def test_medians_at_rejects_two_dimensional_chunk(self):
        stream = TrailingMedianStream(8)
        stream.push(np.arange(8.0))
        with pytest.raises(SignalError, match="one-dimensional"):
            stream.medians_at(np.ones((3, 2)), [0])


class TestDetectorEquivalence:
    @pytest.mark.parametrize("kind", list(SignalKind))
    def test_detect_matches_scalar_on_all_configs(self, kind):
        rng = np.random.default_rng(hash(kind.value) % 2**32)
        config = DETECTOR_CONFIGS[kind]
        for n in (2, 5, 50, 700, 3000):
            series = TimeSeries(0, kind.bin_width,
                                _random_series(rng, n, kind.bin_width))
            assert _detect_in_chunks(series, config) \
                == oracles.detect_alerts(series, config), (kind, n)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(SignalKind)),
           seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_any_chunking_matches_scalar(self, kind, seed, data):
        config = DETECTOR_CONFIGS[kind]
        window = config.history_seconds // kind.bin_width
        if data.draw(st.booleans(), label="replay-shaped"):
            # A warm-up chunk (half the time a full window), then many
            # small watermark steps, as a stream replay feeds.
            first = data.draw(st.integers(1, 3 * window // 2),
                              label="first")
            step = data.draw(st.integers(1, 150), label="step")
            n = first + step * data.draw(st.integers(1, 12), label="steps")
            cuts = list(range(first, n, step))
        else:
            n = data.draw(st.integers(2, 3000), label="n")
            cuts = [cut % (n + 1) for cut in data.draw(
                st.lists(st.integers(0, 3000), max_size=8), label="cuts")]
        rng = np.random.default_rng(seed)
        series = TimeSeries(0, kind.bin_width,
                            _random_series(rng, n, kind.bin_width))
        assert _detect_in_chunks(series, config, cuts) \
            == oracles.detect_alerts(series, config)

    def test_threshold_boundary_ties_are_not_alerts(self):
        """value == threshold * baseline must not alert on either path
        (the comparison is strict)."""
        config = DetectorConfig(threshold=0.5, history_seconds=FIVE_MINUTES,
                                min_history_fraction=1.0)
        # Baseline is always 100 (window of one trailing bin), so a
        # value of exactly 50 sits on the boundary.
        series = TimeSeries(0, FIVE_MINUTES,
                            [100.0, 50.0, 100.0, 49.0, 100.0])
        alerts = _detect_in_chunks(series, config)
        assert alerts == oracles.detect_alerts(series, config)
        assert [a.value for a in alerts] == [49.0]

    def test_short_series_produces_no_alerts(self):
        config = DETECTOR_CONFIGS[SignalKind.TELESCOPE]
        series = TimeSeries(0, FIVE_MINUTES, [10.0, 0.0])
        assert _detect_in_chunks(series, config) \
            == oracles.detect_alerts(series, config) == []

    def test_feed_rejects_mismatched_lengths(self):
        values = np.full(600, 100.0)
        values[400] = 0.0  # alerts, past the end of a short bin_starts
        bin_starts = np.arange(601, dtype=np.int64) * FIVE_MINUTES
        for starts in (bin_starts[:300], bin_starts, bin_starts[:0]):
            detector = StreamingAlertDetector(
                DETECTOR_CONFIGS[SignalKind.BGP], FIVE_MINUTES)
            with pytest.raises(SignalError, match="bin starts"):
                detector.feed(starts, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_feed_rejects_non_finite_values(self, bad):
        """A NaN would rank above every number in the windows that hold
        it and never alert itself; an infinity is no measurement."""
        values = np.full(400, 100.0)
        values[300:] = bad
        bin_starts = np.arange(400, dtype=np.int64) * FIVE_MINUTES
        detector = StreamingAlertDetector(
            DETECTOR_CONFIGS[SignalKind.BGP], FIVE_MINUTES)
        with pytest.raises(SignalError,
                           match=f"non-finite value {bad!r} at position "
                                 f"300 \\(bin {300 * FIVE_MINUTES}\\)"):
            detector.feed(bin_starts, values)
        assert detector.n_bins == 0


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
            cuts = rng.integers(0, len(alerts) + 1,
                                size=int(rng.integers(0, 6)))
            assert group_alerts_streaming(alerts, FIVE_MINUTES,
                                          max_gap_bins=gap, cuts=cuts) \
                == oracles.group_alerts(alerts, FIVE_MINUTES,
                                        max_gap_bins=gap)

    def test_empty_and_single(self):
        assert group_alerts_streaming([], FIVE_MINUTES) == []
        one = [Alert(time=300, value=1.0, baseline=10.0)]
        assert group_alerts_streaming(one, FIVE_MINUTES) \
            == oracles.group_alerts(one, FIVE_MINUTES)

    @pytest.mark.parametrize(
        "grouper", [oracles.group_alerts, group_alerts_streaming])
    def test_negative_max_gap_rejected(self, grouper):
        alerts = [Alert(time=0, value=1.0, baseline=10.0)]
        with pytest.raises(SignalError, match="max gap"):
            grouper(alerts, FIVE_MINUTES, max_gap_bins=-1)

    @pytest.mark.parametrize(
        "grouper", [oracles.group_alerts, group_alerts_streaming])
    def test_nonpositive_bin_width_rejected(self, grouper):
        with pytest.raises(SignalError, match="bin width"):
            grouper([], 0)

    @pytest.mark.parametrize("first,second", [
        (600, 600),    # a repeat: used to count one bin twice
        (900, 600),    # used to give the empty span [900, 900)
        (1200, 600),   # used to fail later, inside finalize()
    ])
    def test_out_of_order_alerts_rejected(self, first, second):
        alerts = [Alert(time=t, value=0.0, baseline=100.0)
                  for t in (first, second)]
        with pytest.raises(SignalError, match="not after"):
            StreamingEpisodeGrouper(FIVE_MINUTES).feed(alerts)
        grouper = StreamingEpisodeGrouper(FIVE_MINUTES)
        grouper.feed(alerts[:1])
        with pytest.raises(SignalError, match="not after"):
            grouper.feed(alerts[1:])


#: A response rate whose unanswered-round belief iterates settle into a
#: 2-cycle of adjacent floats (both phases DOWN) under the default
#: Trinocular config, instead of a fixed point.
TWO_CYCLE_RATE = float.fromhex("0x1.5e3162e29ef04p-3")


@contextmanager
def cell_budget(cells):
    """Draw the signal kernels' uniforms ``cells`` at a time, so that
    one window spans many blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.rng, "BLOCK_CELLS", cells)
        yield


class TestProbingEquivalence:
    def _run(self, rng, n_blocks, config=None):
        return ActiveProbingRun(np.arange(n_blocks),
                                rng.uniform(0.15, 0.95, size=n_blocks),
                                config)

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
            scalar = oracles.up_count_series(
                run, window, up, np.random.default_rng(seed))
            assert vec.start == scalar.start
            assert vec.width == scalar.width
            assert vec.values.tobytes() == scalar.values.tobytes(), trial

    @settings(max_examples=60, deadline=None)
    @given(prior_up=st.floats(0.95, 0.999),
           up_threshold=st.floats(0.5, 0.85),
           probes=st.integers(1, 3),
           drift=st.floats(0.0, 0.2),
           n_blocks=st.integers(1, 130),
           data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_prior_up_configs_match_scalar(self, prior_up, up_threshold,
                                           probes, drift, n_blocks, data,
                                           seed):
        """A prior above the up threshold keeps never-answered blocks UP
        for a while (``first_down[1] > 1``), which the default config
        never does; partial ground truth exercises the block prefix,
        including up-fractions that land exactly on a block's quantile."""
        on_quantile = st.integers(0, n_blocks).map(lambda k: k / n_blocks)
        ups = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                      on_quantile),
            min_size=1, max_size=300))
        config = TrinocularConfig(probes_per_round=probes,
                                  up_threshold=up_threshold,
                                  prior_up=prior_up, belief_drift=drift)
        run = self._run(np.random.default_rng(seed), n_blocks, config)
        window = TimeRange(0, len(ups) * 600)
        up = np.array(ups)
        vec = run.up_count_series(window, up, np.random.default_rng(seed))
        assume((run._first_down[1] > 1).any())
        scalar = oracles.up_count_series(run, window, up,
                                         np.random.default_rng(seed))
        assert vec.values.tobytes() == scalar.values.tobytes()


class TestBGPEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=150),
           ups=st.lists(st.one_of(st.sampled_from([0.0, 1.0]),
                                  st.floats(0.0, 1.0),
                                  st.floats(-0.5, 1.5)),
                        min_size=1, max_size=200),
           miss_rate=st.one_of(st.just(0.02), st.floats(0.3, 0.6)),
           cells=st.one_of(st.just(repro.rng.BLOCK_CELLS),
                           st.integers(1, 120)),
           seed=st.integers(0, 2**32 - 1))
    def test_kernel_matches_dense_reference(self, sizes, ups, miss_rate,
                                            cells, seed):
        """Also with a cell budget of a few cells, so that one window
        spans many blocks."""
        window = TimeRange(0, len(ups) * FIVE_MINUTES)
        up = np.array(ups)
        with cell_budget(cells):
            kernel = visible_slash24_series(
                window, sizes, up, np.random.default_rng(seed),
                miss_rate=miss_rate)
        dense = oracles.visible_slash24_series(
            window, sizes, up, np.random.default_rng(seed),
            miss_rate=miss_rate)
        assert kernel.start == dense.start
        assert kernel.values.tobytes() == dense.values.tobytes()

    def test_invisible_cells_are_taken_out(self):
        """At a 50% peer miss rate many cells are invisible, so the
        count falls below the reachable budget on most bins."""
        sizes = np.arange(1, 151)
        up = np.resize([1.0, 0.0, 0.37, 0.999], 64)
        window = TimeRange(0, len(up) * FIVE_MINUTES)
        kernel = visible_slash24_series(
            window, sizes, up, np.random.default_rng(5), miss_rate=0.5)
        dense = oracles.visible_slash24_series(
            window, sizes, up, np.random.default_rng(5), miss_rate=0.5)
        budget = np.round(up * sizes.sum())
        assert (kernel.values < budget).sum() > len(up) // 2
        assert kernel.values.tobytes() == dense.values.tobytes()

    def test_rejects_negative_prefix_sizes(self):
        with pytest.raises(SignalError, match="non-negative"):
            visible_slash24_series(TimeRange(0, FIVE_MINUTES), [4, -1],
                                   np.ones(1), np.random.default_rng(0))


class TestBlockedKernels:
    """The kernels draw in row blocks of ``repro.rng.BLOCK_CELLS``
    cells and carry state across block edges; with a budget of a few
    cells a window spans many blocks, and the series must still equal
    the references bit for bit."""

    def _probe(self, run, ups, seed, keep=None):
        window = TimeRange(0, len(ups) * 600)
        up = np.array(ups, dtype=np.float64)
        got = run.up_count_series(window, up, np.random.default_rng(seed),
                                  keep=keep)
        want = oracles.up_count_series(run, window, up,
                                       np.random.default_rng(seed),
                                       keep=keep)
        assert got.start == want.start
        assert got.values.tobytes() == want.values.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(n_blocks=st.integers(1, 40), cells=st.integers(1, 120),
           two_cycle=st.booleans(), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_probing_matches_oracle_across_block_edges(
            self, n_blocks, cells, two_cycle, data, seed):
        rng = np.random.default_rng(seed)
        rates = rng.uniform(0.15, 0.95, size=n_blocks)
        if two_cycle:
            rates[rng.integers(n_blocks)] = TWO_CYCLE_RATE
        run = ActiveProbingRun(rng.permutation(n_blocks), rates)
        on_quantile = st.integers(0, n_blocks).map(lambda k: k / n_blocks)
        ups = data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                      on_quantile),
            min_size=1, max_size=120))
        keep = data.draw(st.one_of(st.none(), st.integers(1, n_blocks)))
        with cell_budget(cells):
            self._probe(run, ups, seed, keep=keep)

    def test_partial_rounds_straddle_block_edges(self):
        run = ActiveProbingRun(np.arange(16),
                               np.random.default_rng(3).uniform(
                                   0.15, 0.95, size=16))
        ups = [1.0] * 40
        ups[3:8] = [0.4, 0.55, 0.25, 0.4, 0.9]   # across the edge at 5
        ups[14:16] = [0.5, 0.5]                  # across the edge at 15
        with cell_budget(16 * 5):
            for seed in range(5):
                self._probe(run, ups, seed)
                self._probe(run, ups, seed, keep=7)

    @pytest.mark.parametrize("cells", [1, 3 * 12, 5 * 12])
    def test_never_answered_across_block_edges(self, cells):
        """Ground truth keeps every block down over the first 12 rounds,
        so no block has answered at several block edges; with a prior
        above the up threshold, never-answered blocks stay UP for a few
        rounds, which the default config never does."""
        config = TrinocularConfig(probes_per_round=1, up_threshold=0.6,
                                  prior_up=0.99, belief_drift=0.05)
        rates = np.random.default_rng(4).uniform(0.15, 0.95, size=12)
        ups = [0.0] * 12 + [1.0, 0.5] * 10
        for run in (ActiveProbingRun(np.arange(12), rates),
                    ActiveProbingRun(np.arange(12), rates, config)):
            with cell_budget(cells):
                for seed in range(4):
                    self._probe(run, ups, seed)
        assert (run._first_down[1] > 3).any()

    def test_gather_fallback_across_block_edges(self):
        """With the first-down levels unavailable (a non-monotone
        table), lookups gather from the table itself."""
        rates = np.random.default_rng(5).uniform(0.15, 0.95, size=10)
        rates[3] = TWO_CYCLE_RATE
        config = TrinocularConfig(probes_per_round=1, up_threshold=0.6,
                                  prior_up=0.99, belief_drift=0.05)
        ups = [0.0] * 7 + [1.0] * 30 + [0.3] * 5 + [0.0] * 9 + [1.0] * 8
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ActiveProbingRun, "_first_down_of",
                          staticmethod(lambda up_table: None))
            for run_config in (None, config):
                run = ActiveProbingRun(np.arange(10), rates, run_config)
                for cells in (1, 10 * 4, 10 * 7, 10_000):
                    with cell_budget(cells):
                        self._probe(run, ups, cells)
                        self._probe(run, ups, cells, keep=6)
                assert run._first_down is None

    def test_bgp_blocks_without_invisible_cells(self):
        """At a 30% peer miss rate about one block in ten of 10 cells
        holds an invisible cell: the others skip the subtraction."""
        sizes = np.arange(1, 11)
        up = np.resize([1.0, 0.0, 0.37, 0.999], 200)
        window = TimeRange(0, len(up) * FIVE_MINUTES)
        quorum = int(np.ceil(24 * 0.5))
        p_visible = oracles._p_visible(quorum, 24, 0.3)
        crossed = (np.random.default_rng(6).random((len(up), len(sizes)))
                   >= p_visible).any(axis=1)
        assert crossed.any() and not crossed.all()
        with cell_budget(len(sizes)):
            kernel = visible_slash24_series(
                window, sizes, up, np.random.default_rng(6), miss_rate=0.3)
        dense = oracles.visible_slash24_series(
            window, sizes, up, np.random.default_rng(6), miss_rate=0.3)
        assert kernel.values.tobytes() == dense.values.tobytes()


class TestBeliefTables:
    def test_cycle_stopped_table_gives_full_depth_lookups(self):
        """A table whose iterates settle into a 2-cycle stops there, and
        every lookup clamped to its last level classifies like the
        full-depth iterates."""
        config = TrinocularConfig()
        inference = TrinocularInference(config)
        rates = np.array([TWO_CYCLE_RATE, 0.3, 0.5, 0.9])
        depth = 400
        table = inference.belief_iterate_tables(rates, max_levels=depth)
        assert table.shape[0] < 40
        # The full-depth iterates, one unanswered round at a time.
        beliefs = np.stack([np.ones(len(rates)),
                            np.full(len(rates),
                                    oracles.initial_belief(config))])
        full = [beliefs]
        for _ in range(depth):
            full.append(np.stack([
                oracles.batch_update(config, row,
                                     np.zeros(len(rates), bool), rates)
                for row in full[-1]]))
        full = np.stack(full)
        assert np.array_equal(full[-1], full[-3])
        assert not np.array_equal(full[-1], full[-2])
        clamped = np.minimum(np.arange(depth + 1), table.shape[0] - 1)
        assert np.array_equal(inference.batch_classify_up(table[clamped]),
                              inference.batch_classify_up(full))

    def test_rate_one_block_stops_early_and_matches_the_oracle(self):
        """A block that always answers while up (rate 1.0) has NaN
        answered-path iterates (one miss from belief 1.0 is 0/0); the
        table still stops at its fixed point, and the series equals the
        per-round reference."""
        inference = TrinocularInference()
        rates = np.array([0.5, 1.0])
        table = inference.belief_iterate_tables(rates, max_levels=1000)
        assert table.shape[0] < 40
        assert np.isnan(table[1:, 0, 1]).all()
        run = ActiveProbingRun(np.arange(len(rates)), rates)
        window = TimeRange(utc(2019, 1, 1), utc(2019, 1, 3))
        up = np.ones((window.end - window.start) // 600)
        up[40:70] = 0.0
        up[100:130] = 0.5
        for seed in range(5):
            got = run.up_count_series(window, up,
                                      np.random.default_rng(seed))
            want = oracles.up_count_series(run, window, up,
                                           np.random.default_rng(seed))
            assert got.values.tobytes() == want.values.tobytes(), seed
        assert run._up_table.shape[0] == table.shape[0]


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
    be byte-identical with the references standing in for production
    detection, probing and BGP counting, batch and streamed."""

    @pytest.fixture(scope="class")
    def small_run(self):
        config = ScenarioConfig(seed=11, years=(2019,))
        period = TimeRange(utc(2019, 1, 1), utc(2019, 5, 1))
        kwargs = dict(scenario_config=config, study_period=period)
        return kwargs, api.run(**kwargs)

    @staticmethod
    def _record_bytes(result):
        return json.dumps(
            [io.record_to_dict(r) for r in result.curated_records],
            sort_keys=True)

    @staticmethod
    def _counted(calls, name, reference):
        def counted(*args, **kwargs):
            calls[name] += 1
            return reference(*args, **kwargs)
        return counted

    def test_oracle_run_matches_production(self, small_run, monkeypatch):
        kwargs, production = small_run
        calls = Counter()
        monkeypatch.setattr(dashboard, "stream_episodes", self._counted(
            calls, "episodes", oracles.stream_episodes))
        monkeypatch.setattr(ActiveProbingRun, "up_count_series",
                            self._counted(calls, "probing",
                                          oracles.up_count_series))
        monkeypatch.setattr(platform, "visible_slash24_series",
                            self._counted(calls, "bgp",
                                          oracles.visible_slash24_series))
        reference = api.run(workers=1, backend="serial", **kwargs)
        assert calls["episodes"] and calls["probing"] and calls["bgp"], \
            calls
        assert self._record_bytes(reference) \
            == self._record_bytes(production)
        assert len(reference.kio_events) == len(production.kio_events)

    def test_oracle_stream_matches_production(self, small_run, monkeypatch):
        kwargs, production = small_run
        calls = Counter()
        monkeypatch.setattr(engine, "StreamingAlertDetector", self._counted(
            calls, "detector", oracles.ScalarAlertDetector))
        monkeypatch.setattr(ActiveProbingRun, "up_count_series",
                            self._counted(calls, "probing",
                                          oracles.up_count_series))
        monkeypatch.setattr(platform, "visible_slash24_series",
                            self._counted(calls, "bgp",
                                          oracles.visible_slash24_series))
        session = api.stream(backend="serial", **kwargs)
        for _ in session.replay(step=30 * DAY):
            pass
        streamed = session.finalize()
        assert calls["detector"] and calls["probing"] and calls["bgp"], \
            calls
        assert self._record_bytes(streamed) \
            == self._record_bytes(production)

    def test_flag_off_matches_across_backends(self, small_run):
        kwargs, production = small_run
        parallel = api.run(workers=2, backend="process", **kwargs)
        assert self._record_bytes(parallel) \
            == self._record_bytes(production)
