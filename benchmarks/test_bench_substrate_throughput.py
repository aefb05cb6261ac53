"""Engineering bench: measurement-substrate throughput.

Not a paper table — this bench tracks the performance of the three
substrate simulators so regressions in the expensive inner loops (the
fleet-scale pipeline replays ~1000 observation windows through them) are
caught by the benchmark suite.
"""

import numpy as np

from repro.bgp.view import visible_slash24_series
from repro.probing.scheduler import ActiveProbingRun
from repro.rng import substream
from repro.telescope.counter import unique_source_series
from repro.timeutils.timestamps import DAY, TimeRange

WINDOW = TimeRange(0, 4 * DAY)
BGP_BINS = 4 * DAY // 300
AP_ROUNDS = 4 * DAY // 600


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
