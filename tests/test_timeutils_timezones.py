"""Tests for repro.timeutils.timezones."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TimeRangeError
from repro.timeutils.timestamps import DAY, HOUR, utc
from repro.timeutils.timezones import (
    FixedOffset,
    local_date,
    local_hour_of_day,
    local_minute_of_hour,
    local_weekday,
)

MYANMAR = FixedOffset(390)   # UTC+06:30
IRAN = FixedOffset(210)      # UTC+03:30
NEPAL = FixedOffset(345)     # UTC+05:45
UTC = FixedOffset(0)
NEW_YORK_STD = FixedOffset(-300)


class TestFixedOffset:
    def test_label_positive_half_hour(self):
        assert MYANMAR.label == "UTC+06:30"

    def test_label_negative(self):
        assert NEW_YORK_STD.label == "UTC-05:00"

    def test_seconds(self):
        assert IRAN.seconds == 12600

    def test_rejects_absurd_offsets(self):
        with pytest.raises(TimeRangeError):
            FixedOffset(15 * 60)


class TestLocalFields:
    def test_midnight_utc_is_midnight_in_utc_zone(self):
        ts = utc(2021, 2, 1)
        assert local_hour_of_day(ts, UTC) == 0
        assert local_minute_of_hour(ts, UTC) == 0

    def test_myanmar_local_midnight(self):
        # Local midnight in Myanmar is 17:30 UTC the previous day.
        ts = utc(2021, 1, 31, 17, 30)
        assert local_hour_of_day(ts, MYANMAR) == 0
        assert local_minute_of_hour(ts, MYANMAR) == 0

    def test_half_hour_offset_shifts_minutes(self):
        # 01:00 UTC is 04:30 in Iran.
        ts = utc(2021, 6, 1, 1, 0)
        assert local_hour_of_day(ts, IRAN) == 4
        assert local_minute_of_hour(ts, IRAN) == 30

    def test_nepal_45_minute_offset(self):
        ts = utc(2021, 6, 1, 0, 0)
        assert local_hour_of_day(ts, NEPAL) == 5
        assert local_minute_of_hour(ts, NEPAL) == 45

    def test_weekday_epoch_thursday(self):
        assert local_weekday(0, UTC) == 3  # 1970-01-01 was a Thursday

    def test_weekday_known_date(self):
        # 2023-09-11 was a Monday.
        assert local_weekday(utc(2023, 9, 11, 12), UTC) == 0

    def test_weekday_changes_across_offset(self):
        # 23:00 UTC Sunday is already Monday in Myanmar.
        ts = utc(2023, 9, 10, 23)
        assert local_weekday(ts, UTC) == 6
        assert local_weekday(ts, MYANMAR) == 0


class TestLocalDate:
    def test_same_local_day_shares_index(self):
        d1 = local_date(utc(2021, 3, 5, 0, 1), UTC)
        d2 = local_date(utc(2021, 3, 5, 23, 59), UTC)
        assert d1 == d2

    def test_offset_moves_day_boundary(self):
        ts = utc(2021, 3, 5, 23)   # already March 6 in Myanmar
        assert local_date(ts, MYANMAR) == local_date(ts, UTC) + 1

    @given(st.integers(min_value=0, max_value=2 * 10**9),
           st.sampled_from([-300, 0, 60, 210, 330, 345, 390, 540]))
    def test_local_date_consistent_with_midnight(self, ts, minutes):
        offset = FixedOffset(minutes)
        midnight = local_date(ts, offset) * DAY - offset.seconds
        assert local_date(midnight, offset) == local_date(ts, offset)
        assert 0 < ts - midnight + 1 <= DAY

    @given(st.integers(min_value=0, max_value=2 * 10**9),
           st.sampled_from([-300, 0, 210, 345, 390]))
    def test_minute_in_range(self, ts, minutes):
        offset = FixedOffset(minutes)
        assert 0 <= local_minute_of_hour(ts, offset) < 60
        assert 0 <= local_hour_of_day(ts, offset) < 24
        assert 0 <= local_weekday(ts, offset) < 7
