"""Engineering bench: heartbeat sampler overhead.

Not a paper table — this bench enforces the telemetry subsystem's
cost contract (see :mod:`repro.obs.telemetry`):

- **Enabled at the default-ish 1s interval**, the sampler is a
  background thread that wakes once a second to read metrics under
  their own locks; the run must pay under 2% wall-time overhead.  Runs
  are timed in off/on pairs whose order alternates, and the median
  per-pair ratio is gated, so host-speed drift over the bench lands on
  both sides alike instead of on whichever side ran last.
- **Disabled** (the default), the cost is exactly zero by
  construction: no sampler object, no thread, and the tracer's
  open-span bookkeeping stays off — the bench asserts the structure,
  not a timing, because an identical code path cannot be "fast", only
  absent.
"""

import statistics
import threading
import time

from benchmarks.conftest import CANONICAL_SEED, print_banner
import repro.api as api
from repro.obs.runtime import Observability
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=CANONICAL_SEED, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))
PAIRS = 6
#: The acceptance bar: <2% wall-time overhead at a 1s interval (plus
#: a few ms of absolute slack to absorb scheduler noise on a short run).
OVERHEAD_BUDGET = 0.02
SLACK_SECONDS = 0.005


def _run_once(telemetry):
    obs = Observability(telemetry=telemetry)
    start = time.perf_counter()
    api.run(scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            observability=obs)
    return time.perf_counter() - start, obs


def _timed_pairs():
    """``PAIRS`` (off seconds, on seconds) pairs, alternating which
    side runs first, plus the last off and on sessions."""
    pairs, sessions = [], {}
    for index in range(PAIRS):
        order = (None, "1s") if index % 2 == 0 else ("1s", None)
        seconds = {}
        for telemetry in order:
            seconds[telemetry], sessions[telemetry] = _run_once(telemetry)
        pairs.append((seconds[None], seconds["1s"]))
    return pairs, sessions[None], sessions["1s"]


def test_bench_heartbeat_overhead():
    _run_once(None)  # warm interpreter and import caches
    pairs, off_obs, on_obs = _timed_pairs()
    ratio = statistics.median(on / off for off, on in pairs)
    off_median = statistics.median(off for off, _ in pairs)

    # Disabled is structurally free: no sampler, no thread, no
    # open-span bookkeeping, no buffered heartbeats.
    assert off_obs.telemetry is None
    assert off_obs.heartbeats == []
    assert not off_obs.tracer.track_open
    assert not any(t.name == "repro-heartbeat"
                   for t in threading.enumerate())

    # Enabled actually sampled (at least the final beat) and stayed
    # inside the overhead budget (the slack, in seconds, scaled to the
    # run).
    assert on_obs.heartbeats, "telemetry-enabled run never heartbeat"
    assert all(e["type"] == "heartbeat" for e in on_obs.heartbeats)
    assert ratio <= 1.0 + OVERHEAD_BUDGET + SLACK_SECONDS / off_median, \
        (ratio, pairs)

    print_banner(
        "Heartbeat sampler — overhead at 1s interval",
        "engineering bench (no paper analogue)",
        [*(f"pair {i}  {'off first' if i % 2 == 0 else 'on first '}  "
           f"off {off:7.3f} s  on {on:7.3f} s  "
           f"{(on / off - 1.0) * 100:+7.2f} %"
           for i, (off, on) in enumerate(pairs)),
         f"median overhead  {(ratio - 1.0) * 100:+8.2f} %  "
         f"(budget {OVERHEAD_BUDGET * 100:.0f}%, {PAIRS} pairs)",
         f"heartbeats       {len(on_obs.heartbeats):8d}"])
