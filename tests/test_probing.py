"""Tests for the active-probing substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalError
from repro.probing.blocks import sample_blocks
from repro.probing.scheduler import ActiveProbingRun
from repro.probing.trinocular import TrinocularConfig
from repro.rng import substream
from repro.timeutils.timestamps import HOUR, TEN_MINUTES, TimeRange
from tests import oracles

CONFIG = TrinocularConfig()


class TestTrinocularScalar:
    def test_answer_proves_up(self):
        assert oracles.update(CONFIG, 0.05, answered=True,
                              unanswered_probes=0,
                              response_rate=0.5) == 1.0

    def test_misses_decay_belief(self):
        belief = oracles.initial_belief(CONFIG)
        for _ in range(6):
            belief = oracles.update(CONFIG, belief, answered=False,
                                    unanswered_probes=12,
                                    response_rate=0.5)
        assert oracles.classify(CONFIG, belief) is oracles.BlockState.DOWN

    def test_classification_thresholds(self):
        assert oracles.classify(CONFIG, 0.95) is oracles.BlockState.UP
        assert oracles.classify(CONFIG, 0.5) is oracles.BlockState.UNKNOWN
        assert oracles.classify(CONFIG, 0.05) is oracles.BlockState.DOWN

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrinocularConfig(up_threshold=0.0)
        with pytest.raises(ConfigurationError):
            TrinocularConfig(up_threshold=1.5)
        with pytest.raises(ConfigurationError):
            TrinocularConfig(probes_per_round=0)


class TestTrinocularBatch:
    def test_batch_matches_scalar(self):
        beliefs = np.array([0.92, 0.92, 0.5])
        answered = np.array([True, False, False])
        rates = np.array([0.4, 0.4, 0.7])
        batch = oracles.batch_update(CONFIG, beliefs, answered, rates)
        for i in range(3):
            scalar = oracles.update(
                CONFIG, float(beliefs[i]), answered=bool(answered[i]),
                unanswered_probes=CONFIG.probes_per_round,
                response_rate=float(rates[i]))
            assert batch[i] == pytest.approx(scalar)

    def test_answer_probability_zero_when_down(self):
        rates = np.array([0.5, 0.5])
        up = np.array([True, False])
        probs = oracles.answer_probability(CONFIG, rates, up)
        assert probs[1] == 0.0
        assert probs[0] > 0.99  # 12 probes at 50% each


class TestProbedBlocks:
    def test_response_rate_validated(self):
        for rate in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ConfigurationError):
                ActiveProbingRun([1, 2], [0.5, rate])
        with pytest.raises(SignalError, match="equal in length"):
            ActiveProbingRun([1, 2], [0.5])

    def test_sample_blocks_excludes_mobile(self, scenario):
        network = scenario.topology.get("IR")
        rng = substream(1, "blocks")
        slash24, rates = sample_blocks(network, rng, max_blocks=64)
        assert 0 < len(slash24) == len(rates) <= 64
        assert ((rates >= 0.15) & (rates <= 1.0)).all()
        mobile_blocks = {
            block
            for network_as in network.ases if network_as.mobile
            for prefix in network_as.prefixes
            for block in prefix.slash24s()}
        assert all(int(block) not in mobile_blocks for block in slash24)

    def test_sample_deterministic(self, scenario):
        network = scenario.topology.get("SY")
        a = sample_blocks(network, substream(1, "x"), max_blocks=32)
        b = sample_blocks(network, substream(1, "x"), max_blocks=32)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestActiveProbingRun:
    def _run(self, n_blocks=64):
        rng = substream(2, "blocks")
        return ActiveProbingRun(np.arange(n_blocks),
                                rng.uniform(0.2, 0.9, size=n_blocks))

    def test_blocks_taken_in_address_order(self):
        rng = substream(2, "blocks")
        slash24 = rng.permutation(32)
        rates = rng.uniform(0.2, 0.9, size=32)
        order = np.argsort(slash24)
        window = TimeRange(0, 6 * HOUR)
        up = np.linspace(0.0, 1.0, 6 * HOUR // TEN_MINUTES)
        shuffled = ActiveProbingRun(slash24, rates).up_count_series(
            window, up, substream(3, "probe"))
        ordered = ActiveProbingRun(slash24[order], rates[order]) \
            .up_count_series(window, up, substream(3, "probe"))
        assert shuffled.values.tobytes() == ordered.values.tobytes()

    def test_requires_blocks(self):
        with pytest.raises(SignalError):
            ActiveProbingRun([], [])

    def test_keep_probes_the_sample_prefix_alone(self):
        """``keep=k`` on one shared run equals a run built over the
        sample's first ``k`` blocks, bit for bit, for a shuffled sample
        with repeated /24s and windows that grow between calls."""
        rng = substream(5, "blocks")
        slash24 = rng.integers(0, 40, size=48)
        rates = rng.uniform(0.15, 1.0, size=48)
        shared = ActiveProbingRun(slash24, rates)
        for hours, keep in [(6, 8), (30, 17), (12, 48), (60, 31), (6, 1)]:
            window = TimeRange(0, hours * HOUR)
            n_rounds = hours * HOUR // TEN_MINUTES
            up = substream(6, "up", keep).uniform(0.0, 1.2, size=n_rounds)
            got = shared.up_count_series(window, up, substream(7, keep),
                                         keep=keep)
            want = ActiveProbingRun(slash24[:keep], rates[:keep]) \
                .up_count_series(window, up, substream(7, keep))
            assert got.values.tobytes() == want.values.tobytes(), keep
        with pytest.raises(SignalError):
            shared.up_count_series(TimeRange(0, HOUR), np.ones(6),
                                   substream(1, "x"), keep=0)

    def test_steady_state_counts_near_total(self):
        run = self._run()
        window = TimeRange(0, 12 * HOUR)
        n_rounds = 12 * HOUR // TEN_MINUTES
        series = run.up_count_series(window, np.ones(n_rounds),
                                     substream(3, "probe"))
        steady = series.values[6:]
        assert steady.mean() > 0.95 * run.n_blocks

    def test_total_outage_drops_to_zero(self):
        run = self._run()
        window = TimeRange(0, 12 * HOUR)
        n_rounds = 12 * HOUR // TEN_MINUTES
        up = np.ones(n_rounds)
        up[30:50] = 0.0
        series = run.up_count_series(window, up, substream(3, "probe"))
        # Beliefs need a couple of silent rounds to collapse.
        assert series.values[34:50].max() == 0

    def test_recovery_within_one_round(self):
        run = self._run()
        window = TimeRange(0, 12 * HOUR)
        n_rounds = 12 * HOUR // TEN_MINUTES
        up = np.ones(n_rounds)
        up[30:48] = 0.0
        series = run.up_count_series(window, up, substream(3, "probe"))
        assert series.values[48] > 0.9 * run.n_blocks

    def test_partial_outage_partial_drop(self):
        run = self._run()
        window = TimeRange(0, 12 * HOUR)
        n_rounds = 12 * HOUR // TEN_MINUTES
        up = np.ones(n_rounds)
        up[40:60] = 0.4
        series = run.up_count_series(window, up, substream(3, "probe"))
        mid = series.values[45:60].mean()
        assert 0.25 * run.n_blocks < mid < 0.55 * run.n_blocks

    def test_shape_validation(self):
        run = self._run(8)
        with pytest.raises(SignalError):
            run.up_count_series(TimeRange(0, HOUR), np.ones(3),
                                substream(1, "x"))
