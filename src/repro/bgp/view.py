"""BGPView-style visibility counting.

IODA's BGP signal for an entity is the number of /24-equivalents visible to
at least 50% of full-feed peers, computed every 5 minutes (§3.1.1).  Two
implementations are provided:

- :class:`BGPView` — the reference path: consumes a merged update stream,
  maintains one RIB per peer, and counts visibility at each bin boundary.
  Used by unit tests, examples and the single-event benches.
- :func:`visible_slash24_series` — the kernel used for fleet-scale
  simulation: statistically equivalent per-bin counts computed directly
  from a per-bin reachable-fraction array.  A test asserts the two paths
  agree on identical ground truth.

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
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.bgp.messages import BGPUpdate, RouteTable
from repro.bgp.peers import PeerSpec, full_feed_peers
from repro.errors import ConfigurationError, SignalError
from repro.net.ipv4 import Prefix
from repro.rng import uniform_blocks
from repro.signals.series import TimeSeries
from repro.timeutils.timestamps import FIVE_MINUTES, TimeRange, bin_floor

__all__ = ["BGPView", "visible_slash24_series"]

#: A prefix is visible when at least this fraction of full-feed peers
#: carries it.
VISIBILITY_QUORUM = 0.5


class BGPView:
    """Reference per-bin visibility counter.

    Feed it the peers and a time-ordered update stream; it reconstructs
    each peer's RIB and reports, for every bin in the window, the number of
    /24-equivalents visible to at least half of the full-feed peers.
    """

    def __init__(self, peers: Sequence[PeerSpec],
                 bin_width: int = FIVE_MINUTES):
        self._full_feed = full_feed_peers(peers)
        if not self._full_feed:
            raise ConfigurationError("BGPView requires full-feed peers")
        self._bin_width = bin_width

    @property
    def quorum(self) -> int:
        """Minimum number of full-feed peers for visibility."""
        return int(np.ceil(len(self._full_feed) * VISIBILITY_QUORUM))

    def count_series(self, updates: Iterable[BGPUpdate],
                     window: TimeRange,
                     prefixes: Sequence[Prefix]) -> TimeSeries:
        """Visible-/24 series over ``window`` for the given prefix set.

        ``updates`` must be time-ordered (as produced by
        :class:`repro.bgp.stream.BGPStream`).  The value of each bin is the
        visibility measured at the bin's *end*, matching IODA publishing a
        bin only once it closes.
        """
        full_feed_ids = {p.peer_id for p in self._full_feed}
        ribs: Dict[int, RouteTable] = {
            peer.peer_id: RouteTable() for peer in self._full_feed}
        series = TimeSeries.zeros(window, self._bin_width)
        update_iter = iter(updates)
        pending = next(update_iter, None)
        prefix_list = list(prefixes)
        for index in range(len(series)):
            bin_end = series.start + (index + 1) * self._bin_width
            while pending is not None and pending.time < bin_end:
                if pending.peer_id in full_feed_ids:
                    ribs[pending.peer_id].apply(pending)
                pending = next(update_iter, None)
            series.values[index] = self._visible24(ribs, prefix_list)
        return series

    def _visible24(self, ribs: Dict[int, RouteTable],
                   prefixes: List[Prefix]) -> int:
        quorum = self.quorum
        total = 0
        for prefix in prefixes:
            carriers = sum(1 for rib in ribs.values() if prefix in rib)
            if carriers >= quorum:
                total += prefix.num_slash24s
        return total


def visible_slash24_series(
        window: TimeRange,
        prefix_slash24s: Sequence[int],
        up_fraction: np.ndarray,
        rng: np.random.Generator,
        n_full_feed_peers: int = 24,
        miss_rate: float = 0.02,
        bin_width: int = FIVE_MINUTES) -> TimeSeries:
    """Vectorized visible-/24 series.

    ``prefix_slash24s`` gives the /24-equivalent size of each announced
    prefix; ``up_fraction[i]`` is the ground-truth fraction of the entity's
    address space reachable during bin ``i``.  Prefixes are taken down
    largest-fraction-first deterministically (a severity-``s`` event
    removes a contiguous ``s`` share of the space — disruptions hit whole
    operators, not random prefixes), and per-prefix peer visibility noise
    is applied exactly as the reference path would produce it.
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
