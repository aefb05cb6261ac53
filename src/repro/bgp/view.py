"""BGP visibility counting.

IODA's BGP signal for an entity is the number of /24-equivalents visible to
at least 50% of full-feed peers, computed every 5 minutes (§3.1.1).
:func:`visible_slash24_series` computes it per bin from the entity's
ground-truth reachable fraction: each announced prefix is visible with
the probability that at least a quorum of ``n_full_feed_peers`` peers,
each missing it at ``miss_rate``, carries it (:func:`_p_visible`).

The kernel draws one visibility uniform per (bin, prefix) cell but does
arithmetic only where a draw can change the count.  With every prefix
visible a bin counts its whole reachable budget, so the per-cell
contributions are needed only for the rare invisible cells (with the
default 24 peers and 2% miss rate, a cell is invisible with probability
2⁻⁵³).  The uniforms come a block of bins at a time
(:func:`repro.rng.uniform_blocks`, the same stream as one whole draw),
and each block's invisible cells are subtracted before the next is
drawn, so no state crosses a block edge and memory stays bounded
whatever the window.  Every quantity is an integer-valued float below
2⁵³, so the result is bit-for-bit the dense (bins × prefixes) sum,
which ``tests/oracles.py`` keeps as the reference.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.errors import SignalError
from repro.rng import uniform_blocks
from repro.signals.series import TimeSeries
from repro.timeutils.timestamps import FIVE_MINUTES, TimeRange, bin_floor

__all__ = ["visible_slash24_series"]

#: A prefix is visible when at least this fraction of full-feed peers
#: carries it.
VISIBILITY_QUORUM = 0.5


def visible_slash24_series(
        window: TimeRange,
        prefix_slash24s: Sequence[int],
        up_fraction: np.ndarray,
        rng: np.random.Generator,
        n_full_feed_peers: int = 24,
        miss_rate: float = 0.02,
        bin_width: int = FIVE_MINUTES) -> TimeSeries:
    """The visible-/24 series of one entity over ``window``.

    ``prefix_slash24s`` gives the /24-equivalent size of each announced
    prefix; ``up_fraction[i]`` is the ground-truth fraction of the entity's
    address space reachable during bin ``i``.  Prefixes are taken down
    largest-fraction-first deterministically (a severity-``s`` event
    removes a contiguous ``s`` share of the space — disruptions hit whole
    operators, not random prefixes), and each (bin, prefix) cell is
    visible with probability :func:`_p_visible`.
    """
    sizes = np.asarray(prefix_slash24s, dtype=np.int64)
    if sizes.ndim != 1 or len(sizes) == 0:
        raise SignalError("prefix_slash24s must be a non-empty 1-D sequence")
    start = bin_floor(window.start, bin_width)
    n_bins = -(-(window.end - start) // bin_width)
    up = np.asarray(up_fraction, dtype=np.float64)
    if up.shape != (n_bins,):
        raise SignalError(
            f"up_fraction has shape {up.shape}, expected ({n_bins},)")

    if (sizes < 0).any():
        raise SignalError("prefix_slash24s must be non-negative")
    total24 = int(sizes.sum())
    # An up-fraction f keeps the first f share of the address space
    # reachable (disruptions hit operators from the tail of the
    # allocation order).  The boundary prefix is partially reachable —
    # its surviving sub-prefixes stay announced — so it contributes its
    # remaining /24 budget rather than flapping whole.  Prefix i thus
    # contributes clip(budget - cumprev[i], 0, sizes[i]), and those
    # contributions tile [0, total24]: a bin with every prefix visible
    # counts clip(budget, 0, total24).
    budget = np.round(up * total24)
    values = np.clip(budget, 0.0, total24)
    values += 0.0  # the dense sum of a -0.0 budget is +0.0

    quorum = int(np.ceil(n_full_feed_peers * VISIBILITY_QUORUM))
    # P(prefix visible | up) = P(Binomial(K, 1-miss) >= quorum), computed
    # once: per-bin carrier counts are iid across bins and prefixes, so a
    # Bernoulli draw at this probability is distributionally identical to
    # simulating every peer, at a fraction of the cost.
    p_visible = _p_visible(quorum, n_full_feed_peers, miss_rate)
    for first, draws in uniform_blocks(rng, n_bins, len(sizes)):
        if draws.max() >= p_visible:
            # Take each invisible cell's contribution back out.  The
            # values are exact integers, so the order of subtraction
            # cannot matter.
            rows, cols = np.nonzero(draws >= p_visible)
            rows += first
            cumprev = np.cumsum(sizes) - sizes
            np.subtract.at(values, rows, np.clip(
                budget[rows] - cumprev[cols], 0, sizes[cols]))
    return TimeSeries(start, bin_width, values)


@lru_cache(maxsize=64)
def _p_visible(quorum: int, n_peers: int, miss_rate: float) -> float:
    """Memoized P(prefix visible | up) — every entity in a run shares
    the same peer count and miss rate."""
    return float(1.0 - _binom_cdf(quorum - 1, n_peers, 1.0 - miss_rate))


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p) (exact summation)."""
    if k < 0:
        return 0.0
    from repro.stats.binomial import binomial_pmf
    return min(1.0, sum(binomial_pmf(i, n, p) for i in range(k + 1)))
