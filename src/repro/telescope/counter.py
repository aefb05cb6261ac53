"""Unique-source counting: the Telescope signal.

:func:`unique_source_series` draws each 5-minute bin's unique-source
count from a compound distribution: Poisson arrivals with diurnal
modulation and gamma overdispersion, scaled by the ground-truth up
fraction.  Packets are not simulated.  ``tests/oracles.py`` keeps a
packet-level generator, anti-spoofing filters and a distinct-source
counter, and a test holds this series' mean to theirs within 20%.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError
from repro.signals.series import TimeSeries
from repro.timeutils.timestamps import DAY, FIVE_MINUTES, HOUR, TimeRange, \
    bin_floor

__all__ = ["diurnal_factors", "unique_source_series"]


def diurnal_factors(bin_starts: np.ndarray, utc_offset_seconds: int,
                    amplitude: float = 0.35) -> np.ndarray:
    """Relative IBR intensity at each timestamp's local time of day.

    IBR peaks in the local afternoon (machines on) and troughs pre-dawn.
    Bit-identical element by element to the scalar
    ``tests/oracles.diurnal_factor``: the integer modulo is exact, the
    float expression applies the same operations in the same order, and
    numpy's cos ufunc produces the same values through its array and
    scalar loops (tests assert exact equality).
    """
    local_seconds = (np.asarray(bin_starts, dtype=np.int64)
                     + utc_offset_seconds) % DAY
    phase = 2.0 * np.pi * (local_seconds - 15 * HOUR) / DAY
    return 1.0 + amplitude * np.cos(phase)


def unique_source_series(
        window: TimeRange,
        intensity_per_bin: float,
        up_fraction: np.ndarray,
        utc_offset_seconds: int,
        rng: np.random.Generator,
        overdispersion: float = 4.0,
        residual_noise: float = 0.6,
        bin_width: int = FIVE_MINUTES) -> TimeSeries:
    """Vectorized telescope series.

    Per bin, the unique-source count is ``Poisson(G * lambda)`` where
    ``lambda = intensity * diurnal * up_fraction`` and ``G ~ Gamma(k, 1/k)``
    injects the bursty overdispersion real telescope data shows.  A small
    ``residual_noise`` floor models spoofed/mislocated packets that survive
    filtering even during a total blackout — the telescope signal of a shut
    country does not go to exactly zero.
    """
    start = bin_floor(window.start, bin_width)
    n_bins = -(-(window.end - start) // bin_width)
    up = np.asarray(up_fraction, dtype=np.float64)
    if up.shape != (n_bins,):
        raise SignalError(
            f"up_fraction has shape {up.shape}, expected ({n_bins},)")
    if intensity_per_bin <= 0:
        raise SignalError(
            f"intensity must be positive: {intensity_per_bin}")

    bin_starts = start + bin_width * np.arange(n_bins)
    diurnal = diurnal_factors(bin_starts, utc_offset_seconds)
    lam = intensity_per_bin * diurnal * np.clip(up, 0.0, 1.0)
    lam = lam + residual_noise
    gamma = rng.gamma(shape=overdispersion, scale=1.0 / overdispersion,
                      size=n_bins)
    values = rng.poisson(lam * gamma).astype(np.float64)
    return TimeSeries(start, bin_width, values)
