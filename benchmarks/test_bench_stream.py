"""Engineering bench: the streaming detection path.

Not a paper table — this bench guards the three performance claims the
``api.stream`` surface makes: pushing a bin is cheap (per-bin latency),
a streamed run does not hold more memory than the batch run it
reproduces (peak allocation), and detector state is O(window) — it
stops growing once the trailing history window fills, no matter how
long the stream runs.
"""

import tracemalloc

import numpy as np

import repro.api as api
from repro.rng import substream
from repro.signals.alerts import DetectorConfig
from repro.stream.detect import StreamingAlertDetector
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

from benchmarks.conftest import print_banner

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 5, 1))
STEP = 14 * 86400


def _stream_run(step=STEP):
    session = api.stream(scenario_config=SMALL_CONFIG,
                         study_period=SMALL_PERIOD)
    pushed = 0
    for batch in session._source.batches(step):
        pushed += session.push(batch.segments)
        session.advance_watermark(batch.watermark)
    return session.finalize(), pushed


def test_bench_stream_push_latency(benchmark):
    """Mean wall time per pushed bin across a full streamed run."""
    result, pushed = benchmark.pedantic(
        _stream_run, rounds=3, iterations=1)
    assert result.curated_records
    assert pushed > 0
    per_bin_us = benchmark.stats.stats.mean / pushed * 1e6
    benchmark.extra_info["bins_per_round"] = pushed
    benchmark.extra_info["per_bin_us"] = round(per_bin_us, 2)
    print_banner(
        "Streaming push latency",
        "engineering guard (not a paper figure)",
        [f"bins per run        {pushed}",
         f"mean per-bin latency {per_bin_us:10.2f} us"])
    # Generous ceiling: a push must stay far below one 300s bin width.
    assert per_bin_us < 50_000


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bench_stream_peak_memory_is_step_bounded():
    """Peak allocation scales with the step in flight, not the period.

    The working set is the engine's per-window buffers plus the
    source's series arrays, which bins cross as array segments (views,
    not per-bin objects).  A fine step keeps only the series in flight
    materialized and releases windows as they close, so its peak sits
    below a single period-wide advance (which must hold every series at
    once); both stay within a small multiple of the batch path's
    whole-series arrays.
    """
    batch_peak = _traced_peak(
        lambda: api.run(scenario_config=SMALL_CONFIG,
                        study_period=SMALL_PERIOD, backend="serial"))
    fine_peak = _traced_peak(lambda: _stream_run(step=2 * 86400))
    giant_peak = _traced_peak(
        lambda: _stream_run(step=SMALL_PERIOD.duration))

    print_banner(
        "Streaming peak allocation",
        "engineering guard (not a paper figure)",
        [f"batch run          {batch_peak / 1e6:8.2f} MB",
         f"stream, 2d step    {fine_peak / 1e6:8.2f} MB",
         f"stream, one advance{giant_peak / 1e6:8.2f} MB",
         f"fine/batch ratio   {fine_peak / batch_peak:8.2f}x",
         f"giant/batch ratio  {giant_peak / batch_peak:8.2f}x"])
    assert fine_peak < giant_peak
    # Loose absolute guards against the incremental state ballooning.
    assert fine_peak < 4 * batch_peak
    assert giant_peak < 4 * batch_peak


def test_bench_detector_state_is_o_window():
    """Detector state stops growing once the history window fills."""
    config = DetectorConfig(threshold=0.8, history_seconds=7 * 86400)
    width = 300
    detector = StreamingAlertDetector(config, width)
    window = detector.window
    rng = substream(1, "bench-stream-state")
    chunk = 512

    sizes = []
    for start in range(0, 40 * window, chunk):
        starts = np.arange(start, start + chunk) * width
        detector.feed(starts, rng.uniform(0.5, 1.0, size=chunk))
        sizes.append(detector._median.tail_size)
        assert detector._median.tail_size <= window

    # Absorbing 40 windows' worth of bins left the retained state
    # pinned at the window size — O(window), not O(stream length).
    assert detector.n_bins >= 40 * window
    assert sizes[-1] == window
    assert sizes[len(sizes) // 2] == window
    print_banner(
        "Detector state bound",
        "engineering guard (not a paper figure)",
        [f"history window      {window} bins",
         f"bins absorbed       {detector.n_bins}",
         f"retained tail       {sizes[-1]} bins (== window)"])
