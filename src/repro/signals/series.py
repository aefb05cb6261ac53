"""Fixed-width binned time series.

All IODA signals are regular time series: BGP and Telescope in 5-minute
bins, Active Probing in 10-minute rounds.  :class:`TimeSeries` wraps a numpy
array with the bin arithmetic, so signal producers append raw counts and the
alert engine and plots consume aligned values.

The blessed high-throughput accessors are the columnar pair
:meth:`TimeSeries.arrays` / :meth:`TimeSeries.from_arrays`: whole
``(bin_starts, values)`` arrays in, whole arrays out, which is how the
detection and curation hot paths consume series.  The per-bin accessors
(:meth:`~TimeSeries.__iter__`, :meth:`~TimeSeries.at`,
:meth:`~TimeSeries.set_at`, :meth:`~TimeSeries.add_at`) remain as
convenience paths for tests, examples, and incremental producers — they
are O(1)-per-bin Python calls and must not appear in per-bin loops over
fleet-scale signals.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import SignalError, TimeRangeError
from repro.timeutils.timestamps import TimeRange, bin_floor

__all__ = ["TimeSeries"]


class TimeSeries:
    """A regularly binned series of float values.

    The series covers ``[start, start + len * width)``; ``values[i]`` is the
    measurement for the bin starting at ``start + i * width``.
    """

    def __init__(self, start: int, width: int,
                 values: Sequence[float] | np.ndarray):
        if width <= 0:
            raise TimeRangeError(f"bin width must be positive: {width}")
        if start % width:
            raise TimeRangeError(
                f"series start {start} is not aligned to width {width}")
        self._start = start
        self._width = width
        self._values = np.asarray(values, dtype=np.float64)
        if self._values.ndim != 1:
            raise SignalError("TimeSeries values must be one-dimensional")

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, span: TimeRange, width: int) -> "TimeSeries":
        """An all-zero series covering ``span`` (start floored to a bin)."""
        start = bin_floor(span.start, width)
        n_bins = -(-(span.end - start) // width)
        return cls(start, width, np.zeros(n_bins))

    @classmethod
    def from_arrays(cls, bin_starts: np.ndarray,
                    values: Sequence[float] | np.ndarray) -> "TimeSeries":
        """Build a series from a ``(bin_starts, values)`` column pair.

        The columnar inverse of :meth:`arrays`: ``bin_starts`` must be
        the contiguous, evenly spaced bin-start timestamps of the
        series (at least two bins, so the width is derivable).
        """
        starts = np.asarray(bin_starts)
        if starts.ndim != 1 or len(starts) < 2:
            raise SignalError(
                "from_arrays needs at least two bin starts to derive "
                f"the bin width (got shape {starts.shape})")
        width = int(starts[1]) - int(starts[0])
        if width <= 0 or not np.array_equal(
                starts, int(starts[0]) + width * np.arange(len(starts))):
            raise SignalError(
                "from_arrays needs contiguous, evenly spaced bin starts")
        if len(starts) != len(values):
            raise SignalError(
                f"bin_starts and values disagree on length: "
                f"{len(starts)} != {len(values)}")
        return cls(int(starts[0]), width, values)

    # -- basic accessors -----------------------------------------------------

    @property
    def start(self) -> int:
        """Timestamp of the first bin."""
        return self._start

    @property
    def width(self) -> int:
        """Bin width in seconds."""
        return self._width

    @property
    def end(self) -> int:
        """Timestamp one past the last bin."""
        return self._start + len(self._values) * self._width

    @property
    def values(self) -> np.ndarray:
        """The underlying value array (mutable view)."""
        return self._values

    @property
    def bin_starts(self) -> np.ndarray:
        """Start timestamp of every bin, as an int64 array."""
        return self._start + self._width * np.arange(
            len(self._values), dtype=np.int64)

    @property
    def span(self) -> TimeRange:
        """The covered time range."""
        return TimeRange(self.start, self.end)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The series as a ``(bin_starts, values)`` column pair.

        This is the blessed bulk accessor: both columns come back as
        whole numpy arrays (``values`` is the live array, not a copy —
        the same view :attr:`values` exposes), so detection and
        curation scan signals without any per-bin Python iteration.
        """
        return self.bin_starts, self._values

    def __len__(self) -> int:
        return len(self._values)

    # -- indexing ------------------------------------------------------------

    def index_of(self, ts: int) -> int:
        """Index of the bin containing ``ts``."""
        if not self.start <= ts < self.end:
            raise TimeRangeError(
                f"timestamp {ts} outside series [{self.start}, {self.end})")
        return (ts - self.start) // self.width

    def timestamp_of(self, index: int) -> int:
        """Start timestamp of the bin at ``index`` (negatives allowed,
        Python-style)."""
        n = len(self._values)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise TimeRangeError(f"bin index out of range: {index}")
        return self.start + index * self.width

    def at(self, ts: int) -> float:
        """Value of the bin containing ``ts`` (per-bin convenience;
        bulk readers use :meth:`arrays`)."""
        return float(self._values[self.index_of(ts)])

    def set_at(self, ts: int, value: float) -> None:
        """Set the value of the bin containing ``ts`` (per-bin
        convenience; bulk writers mutate :attr:`values` directly)."""
        self._values[self.index_of(ts)] = value

    def add_at(self, ts: int, delta: float) -> None:
        """Add ``delta`` to the bin containing ``ts``."""
        self._values[self.index_of(ts)] += delta

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        """Yield ``(bin_start_timestamp, value)`` pairs.

        A per-bin convenience for tests and small consumers; hot paths
        take the whole columns from :meth:`arrays` instead.
        """
        for i, value in enumerate(self._values):
            yield self.start + i * self.width, float(value)

    # -- transforms ----------------------------------------------------------

    def slice(self, span: TimeRange) -> "TimeSeries":
        """The sub-series of whole bins overlapping ``span``."""
        clipped = span.intersect(self.span)
        if clipped is None:
            raise TimeRangeError(f"slice {span} disjoint from {self.span}")
        first = (clipped.start - self.start) // self.width
        last = -(-(clipped.end - self.start) // self.width)
        return TimeSeries(
            self.start + first * self.width, self.width,
            self._values[first:last].copy())

    def scale(self, factor: float) -> "TimeSeries":
        """A copy with every value multiplied by ``factor``."""
        return TimeSeries(self.start, self.width, self._values * factor)

    def __add__(self, other: "TimeSeries") -> "TimeSeries":
        """Bin-wise sum of two aligned series."""
        if (other.start, other.width, len(other)) != (
                self.start, self.width, len(self)):
            raise SignalError("cannot add misaligned time series")
        return TimeSeries(
            self.start, self.width, self._values + other._values)
