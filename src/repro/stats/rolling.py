"""Sliding-window medians.

IODA's alert engine compares each new bin of a signal against the median of
a trailing history window (24 hours for BGP, 7 days for active probing and
the telescope).  Both implementations of that quantity live here, and
both are tested bit for bit against the one-value-at-a-time reference
tracker, ``RollingMedian`` in ``tests/oracles.py``:

- :func:`trailing_median_at` answers the same question at selected
  positions of a whole series.  A handful of positions (what the
  alert detector's prefilter usually leaves) are answered one
  :func:`numpy.partition` each; more go through one exact kernel, a
  wavelet-matrix rank-select over the series' dense value ranks that
  answers both central order statistics of every requested window
  together, in ``log2`` of the distinct-value count levels, and
  computes nothing at positions nobody asked for.
- :class:`TrailingMedianStream` answers it chunk by chunk at O(window)
  state — the baseline engine of
  :class:`~repro.stream.detect.StreamingAlertDetector` and of
  telescope campaign suppression.  A chunk short
  relative to the window (a watermark step) is answered by an exact
  rank-select against a sorted copy of the retained tail, whose work
  grows with the chunk, not the window; a longer chunk goes through
  :func:`trailing_median_at` over tail and chunk.

All use the interpolating median (mean of the central pair for even
counts), matching :func:`repro.stats.descriptive.median`, and every path
averages the central pair as ``(a + b) / 2.0`` for odd counts too, so
their outputs are bitwise-equal for every finite input (zeros of either
sign compare equal, so which one a median returns is not fixed).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError

__all__ = ["TrailingMedianStream", "trailing_median_at"]


class TrailingMedianStream:
    """Incremental counterpart to :func:`trailing_median_at` — O(window)
    state.

    Values arrive chunk by chunk (the streaming detector feeds one chunk
    per watermark advance); the stream retains only the trailing
    ``window`` values, yet answers any trailing-window median inside a
    new chunk **bitwise-identically** to the batch path: the window of
    position ``i`` only ever reaches ``window`` values back, all of
    which live in the retained tail, and both paths below select the
    same two order statistics of that multiset and average them the
    same way.

    - A chunk short relative to the window goes through
      :func:`_tail_rank_select`: each window is the sorted tail minus
      the oldest few tail values plus the first few chunk values, so
      its central order statistics lie in a band of the sorted tail no
      wider than about twice the chunk, and counting that band against
      the chunk costs O(chunk²) instead of re-ranking O(window)
      values on every push.
    - A longer chunk (batch feeds a whole series as one) goes through
      :func:`trailing_median_at` over tail and chunk, whose cost is
      near-linear in their length.

    Per-push work is columnar — no per-bin Python loop — and state never
    grows with the length of the series, which is what lets a streamed
    timeline run arbitrarily long at bounded memory.
    """

    def __init__(self, window: int):
        if window <= 0:
            raise SignalError(f"window must be positive: {window}")
        self._window = window
        self._tail = np.empty(0, dtype=np.float64)
        self._count = 0

    @property
    def window(self) -> int:
        """Capacity of the trailing window, in values."""
        return self._window

    @property
    def count(self) -> int:
        """Total values absorbed so far (not just the retained tail)."""
        return self._count

    @property
    def tail_size(self) -> int:
        """Retained values — always ``min(count, window)``."""
        return len(self._tail)

    def medians_at(self, chunk: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
        """Trailing medians at positions ``idx`` *within* ``chunk``.

        ``out[k]`` is the median the batch path would compute at global
        position ``count + idx[k]`` of the full series — the strictly
        trailing window of up to ``window`` values ending just before
        that position.  ``chunk`` is the next contiguous run of values
        (not yet pushed); call :meth:`push` afterwards to absorb it.
        """
        chunk = np.ascontiguousarray(chunk, dtype=np.float64)
        if chunk.ndim != 1:
            raise SignalError("medians_at expects a one-dimensional chunk")
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return np.empty(0)
        if idx.min() < 0 or idx.max() >= chunk.shape[0]:
            raise SignalError(
                f"positions out of range for chunk of {chunk.shape[0]} "
                f"values")
        last = int(idx.max())
        # NaN has no place in the order the tail rank-select counts in
        # (the columnar path ranks it above every number).
        if _tail_select_pays(self._tail.shape[0], self._window, last) \
                and not np.isnan(self._tail).any() \
                and not np.isnan(chunk[:last]).any():
            return _tail_rank_select(self._tail, chunk, self._window, idx)
        joined = np.concatenate([self._tail, chunk])
        return trailing_median_at(joined, self._window,
                                  idx + len(self._tail))

    def push(self, chunk: np.ndarray) -> None:
        """Absorb a chunk, keeping only the trailing ``window`` values."""
        chunk = np.ascontiguousarray(chunk, dtype=np.float64)
        if chunk.ndim != 1:
            raise SignalError("push expects a one-dimensional chunk")
        self._count += chunk.shape[0]
        if chunk.shape[0] >= self._window:
            self._tail = chunk[-self._window:].copy()
        else:
            joined = np.concatenate([self._tail, chunk])
            self._tail = joined[-self._window:]


#: Requested-position counts up to this go through the per-position
#: partition loop in :func:`trailing_median_at`; denser requests go
#: through :func:`_wavelet_medians`, whose fixed cost (one argsort and
#: one pass over the span per level) is amortized once enough
#: positions share it.  Timed call by call on a canonical serial run's
#: curation calls and the 2018 replay's feeds that reach this function
#: (2-vCPU host): the loop takes ~5 us a position and the kernel
#: ~110 us a call, so the loop wins 84-100% of calls up to 16
#: positions, they tie at 17-24 and the kernel wins from 25 on.
_SPARSE_ROWS = 20


def trailing_median_at(values: np.ndarray, window: int,
                       idx: np.ndarray) -> np.ndarray:
    """Exact trailing-window medians at selected positions only.

    ``out[k]`` is the interpolating median of ``values[max(0, idx[k] -
    window):idx[k]]`` — the same strictly trailing window as the
    reference ``rolling_median`` in ``tests/oracles.py``, bit for bit —
    and NaN where ``idx[k]`` is 0 (no history).  Positions may come in any order and repeat.  The
    alert detector calls this after its necessary-condition prefilter
    has reduced a series to the bins that could possibly alert: a
    handful are answered one :func:`numpy.partition` each, a denser
    request by :func:`_wavelet_medians`.  Either way the central pair
    is averaged as ``(a + b) / 2.0``, also for odd counts, so values
    above ~8.99e307 overflow to inf on both paths alike; NaNs rank
    above every number.
    """
    if window <= 0:
        raise SignalError(f"window must be positive: {window}")
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise SignalError(
            "trailing_median_at expects a one-dimensional array")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size == 0:
        return np.empty(0)
    if idx.min() < 0 or idx.max() >= v.shape[0]:
        raise SignalError(
            f"positions out of range for series of {v.shape[0]} bins")
    if idx.size > _SPARSE_ROWS:
        return _wavelet_medians(v, window, idx)
    out = np.empty(idx.size)
    for k, j in enumerate(idx.tolist()):
        if j == 0:
            out[k] = np.nan
            continue
        w = v[max(0, j - window):j]
        # The central pair is one element for odd counts; averaging it
        # anyway keeps the arithmetic (and overflow) of the kernel.
        lo, hi = (w.shape[0] - 1) // 2, w.shape[0] // 2
        part = np.partition(w, (lo, hi))
        out[k] = (part[lo] + part[hi]) / 2.0
    return out


def _wavelet_medians(v: np.ndarray, window: int,
                     idx: np.ndarray) -> np.ndarray:
    """Trailing medians at positions ``idx`` by a wavelet-matrix
    rank-select (the dense path of :func:`trailing_median_at`).

    Each value is replaced by its dense rank among the distinct values
    of the span the windows cover.  Level by level, from the top rank
    bit down, the sequence is stably partitioned by that bit (zeros
    first) and a prefix count of zeros kept, so the zeros inside any
    range ``[l, r)`` of the level are one subtraction away.  A query
    for the ``k``-th smallest value of a window descends the levels:
    it follows the zeros while ``k`` is below their count, else skips
    them into the ones, and its range lands on a run of equal ranks in
    the last partition.  Both central order statistics of every window
    are queried together, the upper one only for even counts (for odd
    counts it is the lower one), and averaged as ``(a + b) / 2.0``.
    """
    out = np.full(idx.shape[0], np.nan)
    live = np.flatnonzero(idx)
    if live.size == 0:
        return out
    lo = np.maximum(idx[live] - window, 0)
    start = int(lo.min())
    span = v[start:int(idx.max())]
    n = span.shape[0]
    # Equal values share a rank, so an unstable argsort ranks them
    # exactly as a stable one would (signed zeros aside: they compare
    # equal, and which one a rank-select returns was never fixed).
    order = np.argsort(span)
    ordered = span[order]
    fresh = np.empty(n, dtype=bool)
    fresh[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    distinct = ordered[fresh]
    narrow = np.int16 if distinct.shape[0] <= np.iinfo(np.int16).max \
        else np.int32
    ranks = np.empty(n, dtype=narrow)
    ranks[order] = np.add.accumulate(fresh, dtype=narrow) - 1
    left = lo - start
    right = idx[live] - start
    count = right - left
    even = np.flatnonzero(count % 2 == 0)
    # bounds[:, q] is query q's range [l, r) in the current level.
    bounds = np.array([np.concatenate([left, left[even]]),
                       np.concatenate([right, right[even]])])
    k = np.concatenate([(count - 1) // 2, count[even] // 2])
    zeros_before = np.zeros(n + 1, dtype=np.intp)
    for level in reversed(range((distinct.shape[0] - 1).bit_length())):
        zero = (ranks & (1 << level)) == 0
        np.add.accumulate(zero, dtype=np.intp, out=zeros_before[1:])
        z = zeros_before[bounds]
        zeros_in = z[1] - z[0]
        to_ones = k >= zeros_in
        np.subtract(k, zeros_in, out=k, where=to_ones)
        # A range's ones start after all the level's zeros, offset by
        # the ones before it.
        bounds = np.where(to_ones, bounds - z + zeros_before[n], z)
        ranks = np.concatenate([np.compress(zero, ranks),
                                np.compress(~zero, ranks)])
    picked = distinct[ranks[bounds[0]]]
    low = picked[:live.size]
    high = low.copy()
    high[even] = picked[live.size:]
    out[live] = (low + high) / 2.0
    return out


#: Count-matrix elements :func:`_tail_rank_select` may spend per value
#: :func:`trailing_median_at` would rank over tail and chunk instead.
#: Measured against the wavelet kernel on the 2018 replay's 4,377
#: feeds that could take either (2-vCPU host), the tail rank-select is
#: 2.9-3.6x faster from 4 to 24 (a 72-bin step against the 2,016-bin
#: telescope window is ~7), 1.5x at 24-32 and even at 32-48 (the same
#: step against the 288-bin BGP window is ~44); on all-distinct values
#: it falls behind from about 60.  The cap also bounds the kernel's
#: memory by a multiple of the values the stream holds.
_TAIL_SELECT_WORK = 32


def _tail_select_pays(size: int, window: int, last: int) -> bool:
    """Whether :func:`_tail_rank_select` should answer positions up to
    ``last`` of a chunk that follows a retained tail of ``size`` values.

    Its count matrix has ``last + 1`` rows and at most ``min(size,
    2 * last + 2) + last`` columns (the tail band plus the chunk
    prefix); the kernel needs a tail to sort and windows that still
    reach into it (``last <= window``).
    """
    if size == 0 or last > window:
        return False
    columns = min(size, 2 * last + 2) + last
    return (last + 1) * columns <= _TAIL_SELECT_WORK * (size + last)


def _tail_rank_select(tail: np.ndarray, chunk: np.ndarray, window: int,
                      idx: np.ndarray) -> np.ndarray:
    """Trailing medians at chunk positions ``idx``, ranked against the
    sorted retained ``tail`` (see :class:`TrailingMedianStream`).

    The window of chunk position ``p`` is ``S - tail[:e] + chunk[:p]``
    with ``S`` the sorted tail and ``e = max(0, len(tail) + p -
    window)`` the oldest tail values it no longer reaches.  Adding
    ``p`` values moves a tail value's rank up by at most ``p`` and
    dropping ``e`` moves it down by at most ``e``, so the window's
    ``k``-th smallest value is in ``S[k-p .. k+e]`` or in
    ``chunk[:p]`` — and a chunk value can only be it when it lies
    between those two tail values.  Counting, for every such candidate
    ``V``, the window values ``<= V`` (``searchsorted`` on ``S``, minus
    a prefix count over ``tail[:e]``, plus one over ``chunk[:p]``)
    gives a count that is monotone in ``V``; the first candidate whose
    count exceeds ``k`` is the order statistic itself, the same value
    :func:`_wavelet_medians` picks, and the median is the same
    ``(a + b) / 2.0`` of the central pair.  Requires a non-empty,
    NaN-free tail, a NaN-free ``chunk[:max(idx)]`` and ``max(idx) <=
    window``.
    """
    size = tail.shape[0]
    last = int(idx.max())
    n = np.minimum(idx + size, window)
    ks = np.stack([(n - 1) // 2, n // 2])
    # The band's edges, k - p and k + e, are monotone in p: the last
    # position sets both.
    n_dropped = max(0, last + size - window)
    lo = max(0, (min(last + size, window) - 1) // 2 - last)
    hi = min(size, min(last + size, window) // 2 + n_dropped + 1)
    ordered = np.sort(tail)
    band = ordered[lo:hi]
    head = chunk[:last]
    if lo > 0:
        head = head[head >= band[0]]
    if hi < size:
        head = head[head <= band[-1]]
    candidates = np.unique(np.concatenate([band, head]))
    # counts[p, v]: values <= candidates[v] in the window of chunk
    # position p.  Row 0 counts the whole tail; row p + 1 adds
    # chunk[p] and, once the window slides (e grows with p in step),
    # drops tail[e - 1] — so one cumsum down the rows counts them all.
    counts = np.empty((last + 1, candidates.shape[0]), dtype=np.int32)
    counts[0] = np.searchsorted(ordered, candidates, side="right")
    counts[1:] = chunk[:last, None] <= candidates
    if n_dropped:
        counts[last + 1 - n_dropped:] -= \
            tail[:n_dropped, None] <= candidates
    np.cumsum(counts, axis=0, out=counts)
    # Each row is nondecreasing and at most ``window``: offset row r by
    # r * (window + 1) and one searchsorted over the flattened rows
    # finds, per row and statistic, the first count above k.
    rows = np.arange(idx.shape[0])
    offset = rows * (window + 1)
    flat = (counts[idx] + offset[:, None]).ravel()
    at = np.searchsorted(flat, ks + offset, side="right")
    picked = candidates[at - rows * candidates.shape[0]]
    return (picked[0] + picked[1]) / 2.0
