"""Tests for the telescope substrate and its packet-level reference."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.net.ipv4 import IPv4Address, parse_prefix
from repro.rng import substream
from repro.telescope.counter import diurnal_factors, unique_source_series
from repro.timeutils.timestamps import DAY, HOUR, TimeRange
from tests.oracles import (
    BOGON_PREFIXES,
    IBRGenerator,
    PacketKind,
    TelescopePacket,
    default_filters,
    diurnal_factor,
    not_bogon,
    ttl_plausible,
    unique_sources_from_packets,
)

PREFIXES = [parse_prefix("20.0.0.0/20"), parse_prefix("20.0.16.0/22")]


def packet(source="20.0.0.5", ttl=60, kind=PacketKind.SCAN, time=0):
    return TelescopePacket(time=time, source=IPv4Address.parse(source),
                           ttl=ttl, kind=kind)


class TestDiurnal:
    def test_peaks_afternoon_troughs_predawn(self):
        offset = 0
        afternoon = diurnal_factor(15 * HOUR, offset)
        predawn = diurnal_factor(3 * HOUR, offset)
        assert afternoon > 1.2
        assert predawn < 0.8

    def test_offset_shifts_peak(self):
        # 09:00 UTC is 15:30 in Myanmar (+6:30): near the local peak there.
        ts = 9 * HOUR
        assert diurnal_factor(ts, 390 * 60) > diurnal_factor(ts, 0)

    def test_period_is_one_day(self):
        assert diurnal_factor(7 * HOUR, 0) == \
            pytest.approx(diurnal_factor(7 * HOUR + DAY, 0))

    def test_vectorized_matches_scalar_exactly(self):
        # The telescope signal feeds lam into rng.poisson, so even a
        # one-ULP drift between the vectorized and scalar paths would
        # change output bytes: equality must be exact, not approximate.
        start = 1_600_000_000 - (1_600_000_000 % 300)
        bin_starts = start + 300 * np.arange(2 * DAY // 300)
        for offset in (0, 3 * HOUR, -5 * HOUR, 345 * 60, 20700):
            vectorized = diurnal_factors(bin_starts, offset)
            scalar = np.array([diurnal_factor(int(ts), offset)
                               for ts in bin_starts])
            assert np.array_equal(vectorized, scalar)

    def test_vectorized_respects_amplitude(self):
        bin_starts = np.arange(0, DAY, 300)
        flat = diurnal_factors(bin_starts, 0, amplitude=0.0)
        assert np.array_equal(flat, np.ones_like(flat))
        scalar = np.array([diurnal_factor(int(ts), 0, amplitude=0.1)
                           for ts in bin_starts])
        assert np.array_equal(
            diurnal_factors(bin_starts, 0, amplitude=0.1), scalar)


class TestFilters:
    def test_ttl_plausible(self):
        assert ttl_plausible(packet(ttl=60))
        assert not ttl_plausible(packet(ttl=255))
        assert not ttl_plausible(packet(ttl=1))

    def test_bogon_rejected(self):
        assert not not_bogon(packet(source="10.1.2.3"))
        assert not not_bogon(packet(source="192.168.1.1"))
        assert not_bogon(packet(source="20.0.0.5"))

    def test_pipeline_partition(self):
        packets = [packet(), packet(ttl=255), packet(source="10.0.0.1")]
        accepted, rejected = default_filters().partition(packets)
        assert len(accepted) == 1
        assert len(rejected) == 2

    def test_bogon_table_contains_rfc1918(self):
        rendered = {str(p) for p in BOGON_PREFIXES}
        assert "10.0.0.0/8" in rendered
        assert "192.168.0.0/16" in rendered


class TestIBRGenerator:
    def _generator(self, intensity=60.0):
        return IBRGenerator(PREFIXES, intensity_per_bin=intensity,
                            utc_offset_seconds=0,
                            rng=substream(5, "ibr"))

    def test_sources_come_from_prefixes_when_up(self):
        generator = self._generator()
        window = TimeRange(0, HOUR)
        up = np.ones(12)
        packets = list(generator.packets(window, up))
        genuine = [p for p in packets if p.kind is not PacketKind.SPOOFED]
        assert genuine
        for p in genuine:
            assert any(prefix.contains(p.source) for prefix in PREFIXES)

    def test_blackout_stops_genuine_traffic(self):
        generator = self._generator()
        window = TimeRange(0, HOUR)
        packets = list(generator.packets(window, np.zeros(12)))
        assert all(p.kind is PacketKind.SPOOFED for p in packets)

    def test_spoofed_packets_filtered(self):
        generator = self._generator()
        window = TimeRange(0, 2 * HOUR)
        packets = list(generator.packets(window, np.ones(24)))
        accepted, _ = default_filters().partition(packets)
        spoofed_surviving = [p for p in accepted if p.likely_spoofed]
        # The pathological-TTL heuristic removes all our spoofed traffic.
        assert not spoofed_surviving


class TestCounting:
    def test_packet_counting_matches_manual(self):
        window = TimeRange(0, 600)
        packets = [
            packet(source="20.0.0.1", time=10),
            packet(source="20.0.0.1", time=20),   # duplicate source
            packet(source="20.0.0.2", time=30),
            packet(source="20.0.0.3", time=400),  # second bin
        ]
        series = unique_sources_from_packets(packets, window)
        assert list(series.values) == [2, 1]

    def test_packets_outside_window_ignored(self):
        window = TimeRange(0, 300)
        series = unique_sources_from_packets([packet(time=5000)], window)
        assert series.values.sum() == 0

    def test_statistical_series_tracks_up_fraction(self):
        window = TimeRange(0, 2 * DAY)
        n_bins = 2 * DAY // 300
        up = np.ones(n_bins)
        up[n_bins // 2:] = 0.0
        series = unique_source_series(window, 80.0, up, 0,
                                      substream(6, "tel"))
        up_mean = series.values[:n_bins // 2].mean()
        down_mean = series.values[n_bins // 2:].mean()
        assert down_mean < 0.1 * up_mean

    def test_statistical_and_packet_paths_agree_in_mean(self):
        window = TimeRange(0, 6 * HOUR)
        n_bins = 6 * HOUR // 300
        intensity = 50.0
        generator = IBRGenerator(PREFIXES, intensity, 0,
                                 substream(7, "a"), spoofed_fraction=0.0)
        packets = list(generator.packets(window, np.ones(n_bins)))
        packet_series = unique_sources_from_packets(packets, window)
        stat_series = unique_source_series(
            window, intensity, np.ones(n_bins), 0, substream(7, "b"),
            residual_noise=0.0)
        # Means within 20% (unique-counting dedups a few collisions).
        assert stat_series.values.mean() == pytest.approx(
            packet_series.values.mean(), rel=0.2)

    def test_validation(self):
        with pytest.raises(SignalError):
            unique_source_series(TimeRange(0, HOUR), 10.0, np.ones(3), 0,
                                 substream(1, "x"))
        with pytest.raises(SignalError):
            unique_source_series(TimeRange(0, HOUR), 0.0, np.ones(12), 0,
                                 substream(1, "x"))
