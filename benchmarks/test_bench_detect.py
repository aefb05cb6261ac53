"""Engineering bench: the production alert detector vs the scalar spec.

Not a paper table — this bench guards the detection core:
:class:`repro.stream.detect.StreamingAlertDetector` fed each series as one
chunk (as batch curation feeds it) and
:class:`repro.stream.detect.StreamingEpisodeGrouper` must be
bitwise-identical to the per-bin and per-alert references in
:mod:`tests.oracles` while being far faster on the curation workload.
That workload is a *fleet* of signals — months of 5-minute bins scanned
against a 7-day trailing-median window — where most series never alert
(the running-max prefilter dismisses them without computing a single
median) and a few carry genuine drops.
"""

import time

import numpy as np

from benchmarks.conftest import print_banner
from repro.ioda.detectors import DETECTOR_CONFIGS
from repro.signals.kinds import SignalKind
from repro.signals.series import TimeSeries
from repro.stream.detect import StreamingAlertDetector, \
    StreamingEpisodeGrouper
from repro.timeutils.timestamps import DAY, FIVE_MINUTES

from tests import oracles

#: One month of 5-minute bins per signal — one curation signal pull.
N_BINS = 30 * DAY // FIVE_MINUTES

#: The fleet: like a country sweep, most entities are undisturbed.
N_SERIES = 40
N_DISRUPTED = 4

#: Episodes may bridge one missing bin (the curation default).
MAX_GAP_BINS = 1


def _fleet():
    """Telescope-like series: diurnal baseline, noise, and injected
    outages on a handful of entities."""
    rng = np.random.default_rng(2023)
    t = np.arange(N_BINS)
    diurnal = 800.0 * np.sin(2 * np.pi * t / (DAY // FIVE_MINUTES))
    fleet = []
    for index in range(N_SERIES):
        values = np.round(
            4000.0 + diurnal + rng.normal(0.0, 60.0, N_BINS))
        if index < N_DISRUPTED:
            for start, length, depth in ((5200, 24, 0.95),
                                         (7600, 18, 0.99)):
                values[start:start + length] = np.round(
                    values[start:start + length] * (1.0 - depth))
        fleet.append(TimeSeries(0, FIVE_MINUTES, np.maximum(values, 0.0)))
    return fleet


def _group(alerts):
    grouper = StreamingEpisodeGrouper(FIVE_MINUTES,
                                      max_gap_bins=MAX_GAP_BINS)
    return grouper.feed(alerts) + grouper.finalize()


def test_bench_detect_columnar_vs_scalar(benchmark):
    fleet = _fleet()
    config = DETECTOR_CONFIGS[SignalKind.TELESCOPE]

    def sweep(detector_class):
        return [detector_class(config, series.width).feed(*series.arrays())
                for series in fleet]

    scalar_start = time.perf_counter()
    scalar_alerts = sweep(oracles.ScalarAlertDetector)
    scalar_mean = time.perf_counter() - scalar_start

    alerts = benchmark.pedantic(lambda: sweep(StreamingAlertDetector),
                                rounds=10, iterations=1)
    columnar_mean = benchmark.stats.stats.mean

    assert alerts == scalar_alerts  # bitwise-identical, not just close
    n_alerts = sum(len(a) for a in alerts)
    assert n_alerts > 0
    assert sum(1 for a in alerts if a) == N_DISRUPTED
    # The acceptance bar: the columnar sweep must beat the per-bin
    # reference by a wide margin on the curation-shaped fleet.
    assert columnar_mean <= 0.2 * scalar_mean, (columnar_mean, scalar_mean)

    episodes = [_group(a) for a in alerts]
    assert episodes == [
        oracles.group_alerts(a, FIVE_MINUTES, max_gap_bins=MAX_GAP_BINS)
        for a in alerts]
    print_banner(
        "Columnar detection — vectorized vs scalar reference",
        "engineering bench (no paper analogue)",
        [f"series swept      {N_SERIES:8d}  ({N_BINS} bins each)",
         f"alerts raised     {n_alerts:8d}",
         f"episodes          {sum(len(e) for e in episodes):8d}",
         f"scalar sweep      {scalar_mean * 1e3:8.1f} ms",
         f"columnar sweep    {columnar_mean * 1e3:8.1f} ms",
         f"speedup           {scalar_mean / columnar_mean:8.1f}x"])
