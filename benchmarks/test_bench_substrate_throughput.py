"""Engineering bench: measurement-substrate throughput.

Not a paper table — this bench tracks the performance of the three
substrate simulators so regressions in the expensive inner loops (the
fleet-scale pipeline replays ~1000 observation windows through them) are
caught by the benchmark suite.

The probing and BGP kernels draw their uniforms in cache-sized blocks
(:func:`repro.rng.uniform_blocks`), so a call's memory does not grow
with its window beyond the output series: the whole-study-period guards
below hold each call's traced allocation peak under a fixed bound.
"""

import tracemalloc

import numpy as np

from repro.bgp.view import visible_slash24_series
from repro.probing.scheduler import ActiveProbingRun
from repro.rng import substream
from repro.telescope.counter import unique_source_series
from repro.timeutils.timestamps import DAY, TimeRange

WINDOW = TimeRange(0, 4 * DAY)
BGP_BINS = 4 * DAY // 300
AP_ROUNDS = 4 * DAY // 600

#: The whole study period, 2018-01-01 to 2021-08-01: 1,308 days, the
#: window of a whole-period dashboard tile.
PERIOD = TimeRange(0, 1308 * DAY)
PERIOD_BINS = 1308 * DAY // 300
PERIOD_ROUNDS = 1308 * DAY // 600
#: Bound on the traced allocation peak of one whole-period kernel call,
#: in MiB.  Drawing the whole (bins x prefixes) or (rounds x blocks)
#: matrix at once peaked at about 440 MiB for BGP and 780 MiB for
#: probing; the blocked kernels peak at about 7 and 3 MiB.
PERIOD_PEAK_MIB = 16


def _traced_peak_mib(call):
    """``call()``'s result and its traced allocation peak in MiB."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_bench_throughput_bgp_fastpath(benchmark):
    sizes = [4] * 150
    up = np.ones(BGP_BINS)
    up[500:600] = 0.0

    def run():
        rng = substream(1, "bench-bgp")
        return visible_slash24_series(WINDOW, sizes, up, rng)

    series = benchmark(run)
    assert series.values[0] == sum(sizes)
    assert series.values[550] == 0


def test_bench_throughput_active_probing(benchmark):
    rng = substream(1, "bench-blocks")
    run_obj = ActiveProbingRun(np.arange(128),
                               rng.uniform(0.2, 0.9, size=128))
    up = np.ones(AP_ROUNDS)
    up[250:300] = 0.0

    def run():
        return run_obj.up_count_series(WINDOW, up,
                                       substream(2, "bench-probe"))

    series = benchmark(run)
    assert series.values[280] == 0


def test_bench_throughput_telescope(benchmark):
    up = np.ones(BGP_BINS)
    up[500:600] = 0.0

    def run():
        return unique_source_series(WINDOW, 60.0, up, 3600,
                                    substream(3, "bench-tel"))

    series = benchmark(run)
    assert series.values[:400].mean() > 20


def test_whole_period_bgp_memory_is_bounded():
    sizes = [4] * 150
    up = np.ones(PERIOD_BINS)
    up[500:600] = 0.0
    series, peak = _traced_peak_mib(lambda: visible_slash24_series(
        PERIOD, sizes, up, substream(1, "bench-bgp")))
    print(f"\nwhole-period BGP ({PERIOD_BINS} bins x {len(sizes)} "
          f"prefixes): traced peak {peak:.1f} MiB")
    assert series.values[550] == 0
    assert peak < PERIOD_PEAK_MIB


def test_whole_period_probing_memory_is_bounded():
    rng = substream(1, "bench-blocks")
    run_obj = ActiveProbingRun(np.arange(128),
                               rng.uniform(0.2, 0.9, size=128))
    up = np.ones(PERIOD_ROUNDS)
    up[250:300] = 0.0
    series, peak = _traced_peak_mib(lambda: run_obj.up_count_series(
        PERIOD, up, substream(2, "bench-probe")))
    print(f"\nwhole-period probing ({PERIOD_ROUNDS} rounds x "
          f"{run_obj.n_blocks} blocks): traced peak {peak:.1f} MiB")
    assert series.values[280] == 0
    assert peak < PERIOD_PEAK_MIB
