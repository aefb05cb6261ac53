"""UTC timestamps and fixed-width time bins.

The simulator and the analysis code both operate on integer Unix timestamps
(seconds since the epoch, UTC).  IODA's signals are binned: BGP and Telescope
use 5-minute bins, Active Probing uses 10-minute rounds.  The helpers here
implement the binning arithmetic used throughout the package.
"""

from __future__ import annotations

import calendar
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterator

from repro.errors import TimeRangeError

__all__ = [
    "FIVE_MINUTES",
    "TEN_MINUTES",
    "HOUR",
    "DAY",
    "WEEK",
    "utc",
    "parse_utc",
    "format_utc",
    "bin_floor",
    "TimeRange",
]

#: Seconds in a 5-minute IODA bin (BGP, Telescope signals).
FIVE_MINUTES = 5 * 60
#: Seconds in a 10-minute IODA active-probing round.
TEN_MINUTES = 10 * 60
#: Seconds in an hour.
HOUR = 60 * 60
#: Seconds in a day.
DAY = 24 * HOUR
#: Seconds in a week.
WEEK = 7 * DAY


def utc(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
        second: int = 0) -> int:
    """Return the Unix timestamp for a UTC calendar date/time.

    >>> utc(2018, 1, 1)
    1514764800
    """
    return calendar.timegm((year, month, day, hour, minute, second, 0, 0, 0))


def parse_utc(text: str) -> int:
    """Parse ``YYYY-MM-DD`` or ``YYYY-MM-DD HH:MM[:SS]`` as UTC.

    Raises :class:`TimeRangeError` if the string is not in either format.
    """
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%d",
                "%Y-%m-%dT%H:%M:%S", "%Y-%m-%dT%H:%M"):
        try:
            parsed = time.strptime(text, fmt)
        except ValueError:
            continue
        return calendar.timegm(parsed)
    raise TimeRangeError(f"unparseable UTC timestamp: {text!r}")


def format_utc(ts: int) -> str:
    """Format a Unix timestamp as ``YYYY-MM-DD HH:MM:SS`` (UTC)."""
    moment = datetime.fromtimestamp(ts, tz=timezone.utc)
    return moment.strftime("%Y-%m-%d %H:%M:%S")


def bin_floor(ts: int, width: int) -> int:
    """Round ``ts`` down to the start of its bin of ``width`` seconds."""
    if width <= 0:
        raise TimeRangeError(f"bin width must be positive, got {width}")
    return ts - (ts % width)


@dataclass(frozen=True, slots=True)
class TimeRange:
    """A half-open interval ``[start, end)`` of Unix timestamps.

    Used for study periods, event spans, and matching windows.  Instances
    are immutable and hashable so they can key caches.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise TimeRangeError(
                f"TimeRange end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> int:
        """Length of the interval in seconds."""
        return self.end - self.start

    def contains(self, ts: int) -> bool:
        """Whether ``ts`` falls inside ``[start, end)``."""
        return self.start <= ts < self.end

    def overlaps(self, other: "TimeRange") -> bool:
        """Whether the two half-open intervals share any instant."""
        return self.start < other.end and other.start < self.end

    def intersect(self, other: "TimeRange") -> "TimeRange | None":
        """The overlapping sub-interval, or ``None`` if disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo >= hi:
            return None
        return TimeRange(lo, hi)

    def expand(self, before: int = 0, after: int = 0) -> "TimeRange":
        """A copy widened by ``before`` seconds earlier and ``after`` later.

        The merge pipeline uses this to add the 24-hour lookback window when
        matching IODA events against date-granular KIO entries.
        """
        return TimeRange(self.start - before, self.end + after)

    def days(self) -> Iterator[int]:
        """Yield the UTC midnight timestamp of each day the range touches."""
        cursor = bin_floor(self.start, DAY)
        while cursor < self.end:
            yield cursor
            cursor += DAY

    def __str__(self) -> str:
        return f"[{format_utc(self.start)} .. {format_utc(self.end)})"
