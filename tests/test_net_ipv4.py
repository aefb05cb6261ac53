"""Tests for repro.net.ipv4."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PrefixError
from repro.net.ipv4 import IPv4Address, Prefix, SLASH24_COUNT, parse_prefix


class TestIPv4Address:
    def test_parse_and_str_roundtrip(self):
        for text in ("0.0.0.0", "10.1.2.3", "192.0.2.1", "255.255.255.255"):
            assert str(IPv4Address.parse(text)) == text

    @pytest.mark.parametrize("bad", [
        "256.0.0.1", "1.2.3", "1.2.3.4.5", "a.b.c.d", "01.2.3.4", "",
        "1..2.3",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(PrefixError):
            IPv4Address.parse(bad)

    def test_out_of_range_value(self):
        with pytest.raises(PrefixError):
            IPv4Address(2 ** 32)
        with pytest.raises(PrefixError):
            IPv4Address(-1)

    def test_slash24_index(self):
        assert IPv4Address.parse("10.1.2.3").slash24 == \
            (10 << 16) | (1 << 8) | 2

    def test_ordering(self):
        assert IPv4Address.parse("1.0.0.0") < IPv4Address.parse("2.0.0.0")

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_parse_str_roundtrip_property(self, value):
        address = IPv4Address(value)
        assert IPv4Address.parse(str(address)) == address


class TestPrefix:
    def test_parse(self):
        prefix = parse_prefix("10.0.0.0/8")
        assert prefix.length == 8
        assert prefix.num_slash24s == 2 ** 16

    def test_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            parse_prefix("10.0.0.1/8")

    def test_rejects_bad_length(self):
        with pytest.raises(PrefixError):
            Prefix(0, 33)

    @pytest.mark.parametrize("bad", ["10.0.0.0", "10.0.0.0/", "10.0.0.0/x"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(PrefixError):
            parse_prefix(bad)

    def test_longer_than_24_has_zero_slash24s(self):
        assert parse_prefix("10.0.0.0/25").num_slash24s == 0
        assert list(parse_prefix("10.0.0.0/25").slash24s()) == []

    def test_slash24_enumeration(self):
        prefix = parse_prefix("10.0.0.0/22")
        blocks = list(prefix.slash24s())
        assert len(blocks) == 4
        assert blocks[0] == (10 << 16)

    def test_contains(self):
        prefix = parse_prefix("192.0.2.0/24")
        assert prefix.contains(IPv4Address.parse("192.0.2.200"))
        assert not prefix.contains(IPv4Address.parse("192.0.3.1"))

    def test_covers(self):
        outer = parse_prefix("10.0.0.0/8")
        inner = parse_prefix("10.1.0.0/16")
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert outer.covers(outer)

    @given(st.integers(min_value=0, max_value=SLASH24_COUNT - 1),
           st.integers(min_value=0, max_value=8))
    def test_aligned_aggregate_properties(self, block, shift):
        size = 1 << shift
        aligned = (block // size) * size
        prefix = Prefix(aligned << 8, 24 - shift)
        assert prefix.num_slash24s == size
        covered = list(prefix.slash24s())
        assert covered[0] == aligned
        assert len(covered) == size
