"""Sliding-window medians.

IODA's alert engine compares each new bin of a signal against the median of
a trailing history window (24 hours for BGP, 7 days for active probing and
the telescope).  Every implementation of that quantity lives here:

- :class:`RollingMedian` maintains the median incrementally using a
  sorted window (O(log w) per push), one value at a time — the
  reference the columnar functions are tested against, and the
  tracker behind telescope campaign suppression;
  :func:`rolling_median` is its batch convenience.
- :func:`trailing_median` computes every trailing-window median of a
  whole series at once with numpy bulk operations.  It is *exact*:
  tests assert bitwise equality with :class:`RollingMedian` on every
  series shape the detectors see.
- :func:`trailing_median_at` answers the same question at selected
  positions only, for callers (the alert detector's prefilter) that
  can prove most bins need no baseline at all.
- :class:`TrailingMedianStream` answers it chunk by chunk at O(window)
  state — the baseline engine of
  :class:`~repro.stream.detect.StreamingAlertDetector`.  A chunk short
  relative to the window (a watermark step) is answered by an exact
  rank-select against a sorted copy of the retained tail, whose work
  grows with the chunk, not the window; a longer chunk goes through
  :func:`trailing_median_at` over tail and chunk.

All use the interpolating median (mean of the central pair for even
counts), matching :func:`repro.stats.descriptive.median`.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Iterable, List, Optional

import numpy as np

from repro.errors import SignalError

__all__ = ["RollingMedian", "TrailingMedianStream", "rolling_median",
           "trailing_median", "trailing_median_at"]


class RollingMedian:
    """Median over a sliding window of the last ``window`` values.

    Values are pushed one bin at a time; :attr:`median` reflects only the
    values currently inside the window.  The median is the interpolating
    median: the mean of the central pair, which for odd counts is the
    middle value averaged with itself — ``(a + a) / 2``, so values above
    ~8.99e307 overflow to inf exactly as in :func:`trailing_median`.
    """

    def __init__(self, window: int):
        if window <= 0:
            raise SignalError(f"window must be positive: {window}")
        self._window = window
        self._queue: deque[float] = deque()
        self._sorted: List[float] = []

    @property
    def window(self) -> int:
        """Capacity of the sliding window, in values."""
        return self._window

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        """Whether the window has reached capacity."""
        return len(self._queue) == self._window

    def push(self, value: float) -> None:
        """Add a value, evicting the oldest if the window is full."""
        if len(self._queue) == self._window:
            oldest = self._queue.popleft()
            index = bisect.bisect_left(self._sorted, oldest)
            del self._sorted[index]
        self._queue.append(value)
        bisect.insort(self._sorted, value)

    @property
    def median(self) -> Optional[float]:
        """Current median, or ``None`` if the window is empty."""
        n = len(self._sorted)
        if n == 0:
            return None
        mid = n // 2
        low = self._sorted[mid] if n % 2 else self._sorted[mid - 1]
        return (low + self._sorted[mid]) / 2.0


class TrailingMedianStream:
    """Incremental counterpart to :func:`trailing_median` — O(window) state.

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


def rolling_median(values: Iterable[float],
                   window: int) -> List[Optional[float]]:
    """For each position, the median of the *preceding* ``window`` values.

    The value at index ``i`` summarizes values ``i-window .. i-1``; it is
    ``None`` while no history exists (index 0).  This trailing convention
    matches the alert engine, which must not let the current (possibly
    anomalous) bin influence its own baseline.
    """
    tracker = RollingMedian(window)
    medians: List[Optional[float]] = []
    for value in values:
        medians.append(tracker.median)
        tracker.push(value)
    return medians


#: Bounds on the coarse value-bucket count of the two-level rank select
#: below.  The coarse histogram matrix is ``buckets x (n+1)`` and its
#: cumsums dominate when buckets are plentiful, while the fine pass
#: grows as buckets shrink — so the count adapts to ``sqrt(2 *
#: n_unique)`` between these bounds.
_MIN_COARSE_BUCKETS = 16
_MAX_COARSE_BUCKETS = 64


def trailing_median(values: np.ndarray, window: int, *,
                    first: int = 1) -> np.ndarray:
    """Every trailing-window median of ``values``, vectorized and exact.

    ``out[i]`` is the interpolating median of
    ``values[max(0, i - window):i]`` — the same strictly trailing
    convention as :func:`rolling_median` — for every ``i >= first``;
    positions before ``first`` are NaN.  Callers that only consume
    medians from some index on (the alert detector's minimum-history
    guard) pass ``first`` to skip the early warm-up entirely.

    The computation is an exact two-level counting rank-select, not an
    approximation: values are mapped to ranks of their sorted unique
    values, cumulative rank histograms answer "how many window elements
    are <= rank r" for every bin at once, and the two central order
    statistics are selected per bin (coarse bucket via a cumulative
    bucket histogram, then the rank range containing the medians is
    refined), so even the widest (2016-bin telescope) windows never
    materialize an ``n x window`` matrix.  Output bits match
    :class:`RollingMedian` for every finite input, including values
    whose central pair overflows to inf; NaNs have no order, so the two
    may differ on them.
    """
    if window <= 0:
        raise SignalError(f"window must be positive: {window}")
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise SignalError("trailing_median expects a one-dimensional array")
    n = v.shape[0]
    out = np.full(n, np.nan)
    first = max(1, first)
    if n <= first:
        return out
    # One stable argsort yields everything the rank select needs: the
    # sorted unique values, each element's value rank, and the element
    # positions grouped by rank (``order`` itself).
    order = np.argsort(v, kind="stable")
    sv = v[order]
    new_flag = np.empty(n, dtype=bool)
    new_flag[0] = True
    np.not_equal(sv[1:], sv[:-1], out=new_flag[1:])
    uniq = sv[new_flag]
    n_uniq = uniq.shape[0]
    if n_uniq == 1:
        out[first:] = (uniq[0] + uniq[0]) / 2.0  # the central pair's mean
        return out
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.cumsum(new_flag) - 1
    rank_starts = np.flatnonzero(new_flag)

    i = np.arange(first, n)
    lo = np.maximum(0, i - window)
    cnt = i - lo
    out[first:] = _rank_select_medians(v, uniq, inv, order, rank_starts,
                                       i, lo, cnt)
    return out


#: Requested-position counts up to this go through the per-position
#: partition loop in :func:`trailing_median_at`; denser requests fall
#: through to the columnar :func:`trailing_median`, whose fixed cost is
#: amortized once enough rows share it.
_SPARSE_ROWS = 32


def trailing_median_at(values: np.ndarray, window: int,
                       idx: np.ndarray) -> np.ndarray:
    """Exact trailing-window medians at selected positions only.

    ``out[k]`` equals ``trailing_median(values, window)[idx[k]]`` for
    every requested position — the same strictly trailing window and
    interpolating median, bit for bit — but computed per position with
    :func:`numpy.partition`.  The alert detector calls this after its
    necessary-condition prefilter has reduced thousands of bins to the
    handful that could possibly alert; a request dense enough that the
    columnar path is cheaper falls through to :func:`trailing_median`.
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
        first = max(1, int(idx.min()))
        return trailing_median(v, window, first=first)[idx]
    out = np.empty(idx.size)
    for k, j in enumerate(idx.tolist()):
        if j == 0:
            out[k] = np.nan
            continue
        w = v[max(0, j - window):j]
        # The central pair is one element for odd counts; averaging it
        # anyway keeps the arithmetic (and overflow) of the columnar path.
        lo, hi = (w.shape[0] - 1) // 2, w.shape[0] // 2
        part = np.partition(w, (lo, hi))
        out[k] = (part[lo] + part[hi]) / 2.0
    return out


#: Count-matrix elements :func:`_tail_rank_select` may spend per value
#: :func:`trailing_median_at` would rank over tail and chunk instead.
#: Measured on the 2018 replay's feeds (2-vCPU host), the tail
#: rank-select is 2.5-5x faster up to about 30 (a 72-bin step against
#: the 2,016-bin telescope window is ~8) and slower beyond 40 (the same
#: step against the 288-bin BGP window is ~44).  The cap also bounds the kernel's memory
#: by a multiple of the values the stream holds.
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
    the columnar rank-select picks, and the median is the same
    ``(a + b) / 2.0`` of the central pair.  Requires a non-empty,
    NaN-free tail, a NaN-free ``chunk[:max(idx)]`` and ``max(idx) <=
    window``.
    """
    size = tail.shape[0]
    dropped = np.maximum(0, idx + size - window)
    n = size - dropped + idx
    ks = np.stack([(n - 1) // 2, n // 2])
    last = int(idx.max())
    lo = max(0, int((ks[0] - idx).min()))
    hi = min(size, int((ks[1] + dropped).max()) + 1)
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
    n_dropped = int(dropped.max())
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


#: Element budget for the unified fine pass: the rank range the two
#: median statistics span, refined in one histogram.  Ranges whose
#: histogram or rank-compare matrix would exceed this fall back to the
#: per-bucket loop, whose compares stay one bucket wide.
_FINE_BUDGET = 500_000


def _rank_select_medians(v: np.ndarray, uniq: np.ndarray, inv: np.ndarray,
                         order: np.ndarray, rank_starts: np.ndarray,
                         i: np.ndarray, lo: np.ndarray,
                         cnt: np.ndarray) -> np.ndarray:
    """Central order statistics of every window ``v[lo_j:i_j]``.

    ``order`` is the stable value-order permutation of ``v`` and
    ``rank_starts[r]`` the offset in ``order`` where rank ``r``'s
    elements begin — both by-products of the caller's argsort.
    """
    n = v.shape[0]
    n_uniq = uniq.shape[0]
    n_rows = len(i)
    count_dtype = np.int16 if n < 32000 else np.int64
    # Target *counts*: the k-th smallest is the first rank whose
    # cumulative window count reaches k+1.
    t1 = ((cnt - 1) // 2 + 1).astype(count_dtype)
    t2 = (cnt // 2 + 1).astype(count_dtype)

    n_buckets = min(_MAX_COARSE_BUCKETS,
                    max(_MIN_COARSE_BUCKETS, int((2 * n_uniq) ** 0.5)))
    bucket_size = -(-n_uniq // n_buckets)
    coarse_of = inv // bucket_size
    n_coarse = -(-n_uniq // bucket_size)
    # cum[b, j] = #{l < j : coarse_of[l] <= b}; window counts differ
    # two columns.
    cum = np.zeros((n_coarse, n + 1), dtype=count_dtype)
    cum[coarse_of, np.arange(n) + 1] = 1
    np.cumsum(cum, axis=1, out=cum)
    # Accumulate across buckets only at the query columns — the window
    # rows are a strict subset of the time axis.
    window_counts = cum[:, i] - cum[:, lo]
    np.cumsum(window_counts, axis=0, out=window_counts)

    def coarse_select(target):
        bucket = (window_counts < target[None, :]).sum(axis=0)
        below = np.where(
            bucket > 0,
            window_counts[np.maximum(bucket - 1, 0), np.arange(n_rows)],
            np.zeros(1, count_dtype))
        return bucket, target - below

    b1, fine_t1 = coarse_select(t1)
    b2, fine_t2 = coarse_select(t2)
    if bucket_size == 1:
        return (uniq[b1] + uniq[b2]) / 2.0

    def members_in(rank_from, rank_to):
        """Element positions whose value rank lies in [rank_from, rank_to),
        straight off the argsort permutation."""
        stop = rank_starts[rank_to] if rank_to < n_uniq else n
        return order[rank_starts[rank_from]:stop]

    # Median trajectories wander slowly, so the two statistics usually
    # span a handful of adjacent coarse buckets: refine the whole rank
    # range in ONE fine histogram instead of a per-bucket loop.
    b_min = int(min(b1.min(), b2.min()))
    b_max = int(max(b1.max(), b2.max()))
    r0 = b_min * bucket_size
    width = min(n_uniq, (b_max + 1) * bucket_size) - r0
    t0 = int(lo.min())
    t_hi = int(i.max())
    if width * max(t_hi - t0 + 1, n_rows) <= _FINE_BUDGET:
        members = members_in(r0, r0 + width)
        inside = members[(members >= t0) & (members < t_hi)]
        fine = np.zeros((width, t_hi - t0 + 1), dtype=count_dtype)
        fine[inv[inside] - r0, inside - t0 + 1] = 1
        np.cumsum(fine, axis=1, out=fine)
        counts = fine[:, i - t0] - fine[:, lo - t0]
        np.cumsum(counts, axis=0, out=counts)
        # Absolute targets rebased to the range: counts below the range
        # are the coarse cumulative of the bucket before it.
        base = window_counts[b_min - 1] if b_min > 0 \
            else np.zeros(n_rows, count_dtype)
        r1 = r0 + (counts < (t1 - base)[None, :]).sum(axis=0)
        r2 = r0 + (counts < (t2 - base)[None, :]).sum(axis=0)
        return (uniq[r1] + uniq[r2]) / 2.0

    r1 = np.empty(n_rows, dtype=np.int64)
    r2 = np.empty(n_rows, dtype=np.int64)
    for b in np.unique(np.concatenate([b1, b2])):
        first_rank = int(b) * bucket_size
        width = min(bucket_size, n_uniq - first_rank)
        sel1 = np.flatnonzero(b1 == b)
        sel2 = np.flatnonzero(b2 == b)
        # Restrict the fine histogram to the time slab these rows'
        # windows cover — median trajectories are temporally local, so
        # the slabs stay narrow.
        t0 = int(min(lo[sel1].min() if len(sel1) else n,
                     lo[sel2].min() if len(sel2) else n))
        t_hi = int(max(i[sel1].max() if len(sel1) else 0,
                       i[sel2].max() if len(sel2) else 0))
        members = members_in(first_rank, first_rank + width)
        inside = members[(members >= t0) & (members < t_hi)]
        fine = np.zeros((width, t_hi - t0 + 1), dtype=count_dtype)
        fine[inv[inside] - first_rank, inside - t0 + 1] = 1
        np.cumsum(fine, axis=1, out=fine)
        for sel, target, ranks in ((sel1, fine_t1, r1), (sel2, fine_t2, r2)):
            if len(sel) == 0:
                continue
            counts = fine[:, i[sel] - t0] - fine[:, lo[sel] - t0]
            np.cumsum(counts, axis=0, out=counts)
            ranks[sel] = first_rank + \
                (counts < target[sel][None, :]).sum(axis=0)
    return (uniq[r1] + uniq[r2]) / 2.0
