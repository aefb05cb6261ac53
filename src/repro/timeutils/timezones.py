"""Fixed-offset timezones for localizing event times.

The paper converts IODA's UTC timestamps to local time using the timezone of
a country's capital city (§4, §5.3).  Since the analysis only needs wall-clock
minute/hour/weekday, we model timezones as *fixed* UTC offsets — DST is
deliberately ignored, matching the paper's capital-city approximation, and
several of the most shutdown-prone countries (Iran being the notable
exception) do not observe DST at all.

Offsets are stored in minutes so that half-hour (+330 for India, +390 for
Myanmar) and 45-minute (+345 for Nepal) zones are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TimeRangeError
from repro.timeutils.timestamps import DAY, HOUR

__all__ = [
    "FixedOffset",
    "to_local",
    "local_minute_of_hour",
    "local_hour_of_day",
    "local_weekday",
    "local_date",
]

_MINUTE = 60


@dataclass(frozen=True, slots=True)
class FixedOffset:
    """A timezone expressed as a fixed offset from UTC, in minutes.

    >>> FixedOffset(390).label
    'UTC+06:30'
    """

    minutes: int

    def __post_init__(self) -> None:
        if not -14 * 60 <= self.minutes <= 14 * 60:
            raise TimeRangeError(
                f"UTC offset out of range: {self.minutes} minutes")

    @property
    def seconds(self) -> int:
        """The offset in seconds (positive east of Greenwich)."""
        return self.minutes * _MINUTE

    @property
    def label(self) -> str:
        """Human-readable ``UTC±HH:MM`` label."""
        sign = "+" if self.minutes >= 0 else "-"
        magnitude = abs(self.minutes)
        return f"UTC{sign}{magnitude // 60:02d}:{magnitude % 60:02d}"

    def __str__(self) -> str:
        return self.label


def to_local(ts: int, offset: FixedOffset) -> int:
    """Shift a UTC timestamp into local wall-clock seconds.

    The result is *not* a Unix timestamp; it is a clock reading expressed in
    seconds so that the usual modular arithmetic extracts local fields.
    """
    return ts + offset.seconds


def local_minute_of_hour(ts: int, offset: FixedOffset) -> int:
    """Local wall-clock minute (0..59) at UTC instant ``ts``."""
    return (to_local(ts, offset) % HOUR) // _MINUTE


def local_hour_of_day(ts: int, offset: FixedOffset) -> int:
    """Local wall-clock hour (0..23) at UTC instant ``ts``."""
    return (to_local(ts, offset) % DAY) // HOUR


def local_weekday(ts: int, offset: FixedOffset) -> int:
    """Local day of week at ``ts``; Monday is 0 (ISO convention).

    The Unix epoch (1970-01-01) was a Thursday, i.e. ISO weekday 3.
    """
    days_since_epoch = to_local(ts, offset) // DAY
    return (days_since_epoch + 3) % 7


def local_date(ts: int, offset: FixedOffset) -> int:
    """The local calendar day containing ``ts``, identified by the *local*
    midnight expressed as days since the epoch.

    Two events share a value iff they happened on the same local date.  Used
    for the day-level contingency analysis (Table 4).
    """
    return to_local(ts, offset) // DAY

