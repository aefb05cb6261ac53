"""Empirical cumulative distribution functions.

All of the paper's Figures 4-14 are CDFs over per-event or per-country-year
values, so the ECDF is the analysis layer's workhorse.  The implementation
uses the right-continuous step convention ``F(x) = P(X <= x)``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.errors import SignalError

__all__ = ["ECDF"]


@dataclass(frozen=True)
class ECDF:
    """An empirical CDF over a fixed sample.

    >>> cdf = ECDF.from_samples([1, 2, 2, 4])
    >>> cdf(2)
    0.75
    >>> cdf.quantile(0.5)
    2
    """

    sorted_samples: Tuple[float, ...]

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "ECDF":
        """Build from any iterable of numbers (must be non-empty)."""
        ordered = tuple(sorted(samples))
        if not ordered:
            raise SignalError("cannot build an ECDF from an empty sample")
        return cls(ordered)

    @property
    def n(self) -> int:
        """Sample size."""
        return len(self.sorted_samples)

    def __call__(self, x: float) -> float:
        """``P(X <= x)``."""
        return bisect.bisect_right(self.sorted_samples, x) / self.n

    def quantile(self, q: float) -> float:
        """The smallest sample value ``v`` with ``F(v) >= q``.

        ``q`` must lie in (0, 1]; ``quantile(0.5)`` is the lower median.
        """
        if not 0.0 < q <= 1.0:
            raise SignalError(f"quantile level out of range: {q}")
        # Smallest index i such that (i + 1) / n >= q, i.e. ceil(q*n) - 1.
        # The epsilon guards against q*n landing just above an integer due
        # to floating-point error (e.g. 0.3 * 10 == 3.0000000000000004).
        index = math.ceil(q * self.n - 1e-9) - 1
        index = max(0, min(index, self.n - 1))
        return self.sorted_samples[index]

    @property
    def median(self) -> float:
        """The lower median of the sample."""
        return self.quantile(0.5)

    def points(self) -> Sequence[Tuple[float, float]]:
        """The step points ``(x, F(x))`` at each distinct sample value.

        This is exactly the series a CDF plot of the figure would draw.
        """
        steps = []
        previous = None
        for i, x in enumerate(self.sorted_samples):
            if x != previous:
                if previous is not None:
                    steps.append((previous, i / self.n))
                previous = x
        steps.append((self.sorted_samples[-1], 1.0))
        return steps
