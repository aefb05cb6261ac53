"""Engineering bench: heartbeat sampler overhead.

Not a paper table — this bench enforces the telemetry subsystem's
cost contract (see :mod:`repro.obs.telemetry`):

- **Enabled at the default-ish 1s interval**, the sampler is a
  background thread that wakes once a second to read metrics under
  their own locks; the run must pay under 2% wall-time overhead.
- **Disabled** (the default), the cost is exactly zero by
  construction: no sampler object, no thread, and the tracer's
  open-span bookkeeping stays off — the bench asserts the structure,
  not a timing, because an identical code path cannot be "fast", only
  absent.
"""

import threading
import time

from benchmarks.conftest import CANONICAL_SEED, print_banner
from repro.core.pipeline import ReproPipeline
from repro.obs.runtime import Observability
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=CANONICAL_SEED, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))
ROUNDS = 3
#: The acceptance bar: <2% wall-time overhead at a 1s interval (plus
#: a few ms of absolute slack to absorb scheduler noise on a short run).
OVERHEAD_BUDGET = 0.02
SLACK_SECONDS = 0.005


def _run_once(telemetry):
    obs = Observability(telemetry=telemetry)
    pipeline = ReproPipeline(
        scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
        observability=obs)
    start = time.perf_counter()
    pipeline.run()
    return time.perf_counter() - start, obs


def _best_of(telemetry):
    best, obs = min((_run_once(telemetry) for _ in range(ROUNDS)),
                    key=lambda pair: pair[0])
    return best, obs


def test_bench_heartbeat_overhead():
    _run_once(None)  # warm interpreter and import caches
    off_best, off_obs = _best_of(None)
    on_best, on_obs = _best_of("1s")
    overhead = on_best / off_best - 1.0

    # Disabled is structurally free: no sampler, no thread, no
    # open-span bookkeeping, no buffered heartbeats.
    assert off_obs.telemetry is None
    assert off_obs.heartbeats == []
    assert not off_obs.tracer.track_open
    assert not any(t.name == "repro-heartbeat"
                   for t in threading.enumerate())

    # Enabled actually sampled (at least the final beat) and stayed
    # inside the overhead budget.
    assert on_obs.heartbeats, "telemetry-enabled run never heartbeat"
    assert all(e["type"] == "heartbeat" for e in on_obs.heartbeats)
    assert on_best <= off_best * (1.0 + OVERHEAD_BUDGET) \
        + SLACK_SECONDS, (on_best, off_best)

    print_banner(
        "Heartbeat sampler — overhead at 1s interval",
        "engineering bench (no paper analogue)",
        [f"telemetry off    {off_best:8.3f} s  (best of {ROUNDS})",
         f"telemetry on     {on_best:8.3f} s  (best of {ROUNDS})",
         f"overhead         {overhead * 100:+8.2f} %  "
         f"(budget {OVERHEAD_BUDGET * 100:.0f}%)",
         f"heartbeats       {len(on_obs.heartbeats):8d}"])
