"""Time handling for the outage/shutdown pipeline.

Everything in the simulator and analysis operates on Unix timestamps
(integer seconds, UTC).  This subpackage provides:

- :mod:`repro.timeutils.timestamps` — construction/formatting of UTC
  timestamps and fixed-width binning (IODA uses 5- and 10-minute bins).
- :mod:`repro.timeutils.timezones` — fixed UTC-offset timezones used to
  convert event times to the local time of a country's capital, including
  half-hour and 45-minute offsets (e.g., Myanmar +6:30, Nepal +5:45).
- :mod:`repro.timeutils.calendars` — weekday arithmetic and workweek
  customs (e.g., Friday-Saturday weekends).
"""

from repro.timeutils.timestamps import (
    FIVE_MINUTES,
    TEN_MINUTES,
    HOUR,
    DAY,
    WEEK,
    TimeRange,
    bin_floor,
    format_utc,
    parse_utc,
    utc,
)
from repro.timeutils.timezones import (
    FixedOffset,
    local_date,
    local_hour_of_day,
    local_minute_of_hour,
    local_weekday,
    to_local,
)
from repro.timeutils.calendars import (
    WEEKDAY_NAMES,
    Workweek,
    day_of_week,
    is_workday,
)

__all__ = [
    "FIVE_MINUTES",
    "TEN_MINUTES",
    "HOUR",
    "DAY",
    "WEEK",
    "TimeRange",
    "bin_floor",
    "format_utc",
    "parse_utc",
    "utc",
    "FixedOffset",
    "local_date",
    "local_hour_of_day",
    "local_minute_of_hour",
    "local_weekday",
    "to_local",
    "WEEKDAY_NAMES",
    "Workweek",
    "day_of_week",
    "is_workday",
]
