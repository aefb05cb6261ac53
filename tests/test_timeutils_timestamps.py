"""Tests for repro.timeutils.timestamps."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TimeRangeError
from repro.timeutils.timestamps import (
    DAY,
    FIVE_MINUTES,
    HOUR,
    TEN_MINUTES,
    TimeRange,
    bin_floor,
    format_utc,
    parse_utc,
    utc,
)


class TestUtcConstruction:
    def test_epoch(self):
        assert utc(1970, 1, 1) == 0

    def test_known_timestamp(self):
        assert utc(2018, 1, 1) == 1514764800

    def test_with_time_components(self):
        assert utc(2018, 1, 1, 5, 30, 15) == 1514764800 + 5 * HOUR + 1815

    def test_parse_date_only(self):
        assert parse_utc("2018-01-01") == utc(2018, 1, 1)

    def test_parse_datetime(self):
        assert parse_utc("2018-01-01 05:30:00") == utc(2018, 1, 1, 5, 30)

    def test_parse_minutes_only(self):
        assert parse_utc("2018-01-01 05:30") == utc(2018, 1, 1, 5, 30)

    def test_parse_iso_t_separator(self):
        assert parse_utc("2018-01-01T05:30") == utc(2018, 1, 1, 5, 30)

    def test_parse_rejects_garbage(self):
        with pytest.raises(TimeRangeError):
            parse_utc("not a date")

    def test_format_roundtrip(self):
        ts = utc(2022, 6, 30, 5, 30)
        assert format_utc(ts) == "2022-06-30 05:30:00"
        assert parse_utc(format_utc(ts)) == ts


class TestBinning:
    def test_floor_on_boundary(self):
        assert bin_floor(600, FIVE_MINUTES) == 600

    def test_floor_mid_bin(self):
        assert bin_floor(601, FIVE_MINUTES) == 600
        assert bin_floor(899, FIVE_MINUTES) == 600

    def test_floor_rejects_bad_width(self):
        with pytest.raises(TimeRangeError):
            bin_floor(600, 0)

    @given(st.integers(min_value=0, max_value=10**10),
           st.sampled_from([FIVE_MINUTES, TEN_MINUTES, HOUR, DAY]))
    def test_floor_idempotent_and_aligned(self, ts, width):
        floored = bin_floor(ts, width)
        assert floored % width == 0
        assert floored <= ts < floored + width
        assert bin_floor(floored, width) == floored


class TestTimeRange:
    def test_duration(self):
        assert TimeRange(0, 3600).duration == 3600

    def test_rejects_inverted(self):
        with pytest.raises(TimeRangeError):
            TimeRange(10, 5)

    def test_contains_half_open(self):
        span = TimeRange(100, 200)
        assert span.contains(100)
        assert span.contains(199)
        assert not span.contains(200)
        assert not span.contains(99)

    def test_overlaps(self):
        assert TimeRange(0, 10).overlaps(TimeRange(9, 20))
        assert not TimeRange(0, 10).overlaps(TimeRange(10, 20))

    def test_intersect(self):
        both = TimeRange(0, 10).intersect(TimeRange(5, 20))
        assert both == TimeRange(5, 10)
        assert TimeRange(0, 10).intersect(TimeRange(20, 30)) is None

    def test_expand(self):
        assert TimeRange(100, 200).expand(before=50, after=25) == \
            TimeRange(50, 225)

    def test_days_iterates_touched_days(self):
        span = TimeRange(utc(2018, 1, 1, 12), utc(2018, 1, 3, 1))
        days = list(span.days())
        assert days == [utc(2018, 1, 1), utc(2018, 1, 2), utc(2018, 1, 3)]

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=10**6))
    def test_overlap_symmetric_and_matches_intersect(self, s1, d1, s2, d2):
        a = TimeRange(s1, s1 + d1)
        b = TimeRange(s2, s2 + d2)
        assert a.overlaps(b) == b.overlaps(a)
        assert a.overlaps(b) == (a.intersect(b) is not None)
