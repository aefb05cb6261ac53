"""Tests for the BGP visibility kernel.

Bit-for-bit agreement with the dense reference count lives in
``tests/test_columnar_detect.py``.
"""

import numpy as np
import pytest

from repro.bgp.view import visible_slash24_series
from repro.errors import SignalError
from repro.net.ipv4 import parse_prefix
from repro.rng import substream
from repro.timeutils.timestamps import FIVE_MINUTES, HOUR, TimeRange


PREFIXES = tuple(parse_prefix(p) for p in
                 ("10.0.0.0/22", "10.0.4.0/23", "10.0.8.0/24"))


class TestVectorizedFastPath:
    def test_matches_reference_on_total_outage(self):
        window = TimeRange(0, 4 * HOUR)
        n_bins = 4 * HOUR // FIVE_MINUTES
        up = np.ones(n_bins)
        outage_bins = slice(HOUR // FIVE_MINUTES, 2 * HOUR // FIVE_MINUTES)
        up[outage_bins] = 0.0
        rng = substream(1, "test")
        series = visible_slash24_series(
            window, [p.num_slash24s for p in PREFIXES], up, rng,
            miss_rate=0.0)
        total24 = sum(p.num_slash24s for p in PREFIXES)
        assert series.at(0) == total24
        assert series.at(HOUR) == 0
        assert series.at(2 * HOUR) == total24

    def test_partial_severity_takes_down_share(self):
        window = TimeRange(0, HOUR)
        n_bins = HOUR // FIVE_MINUTES
        up = np.full(n_bins, 0.5)
        rng = substream(1, "test")
        sizes = [4, 2, 1, 1]
        series = visible_slash24_series(window, sizes, up, rng,
                                        miss_rate=0.0)
        # Prefixes ordered: 50% of the space = the first prefix (4 of 8).
        assert all(v == 4 for v in series.values)

    def test_noise_rare_with_default_miss_rate(self):
        window = TimeRange(0, 24 * HOUR)
        n_bins = 24 * HOUR // FIVE_MINUTES
        rng = substream(1, "test")
        series = visible_slash24_series(
            window, [1] * 50, np.ones(n_bins), rng)
        # P(prefix invisible | up) is astronomically small at 24 peers.
        assert series.values.min() >= 49

    def test_shape_validation(self):
        rng = substream(1, "test")
        with pytest.raises(SignalError):
            visible_slash24_series(TimeRange(0, HOUR), [1],
                                   np.ones(3), rng)
        with pytest.raises(SignalError):
            visible_slash24_series(TimeRange(0, HOUR), [],
                                   np.ones(12), rng)
