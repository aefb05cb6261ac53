"""Engineering bench: lineage-capsule recording overhead.

Not a paper table — this bench enforces the decision-provenance cost
contract (see :mod:`repro.obs.provenance`):

- **Disabled** (the default), the cost is structurally zero: no
  recorder object exists, every instrumentation site is a single
  ``current().provenance is None`` check, and the run emits no
  provenance events — the bench asserts the structure, not a timing,
  because an absent code path cannot be "fast", only absent.
- **Enabled**, every adjudication mints a content-addressed capsule
  (canonical-JSON blake2b per decision); the run must stay under 5%
  wall-time overhead.  Runs are timed in off/on pairs whose order
  alternates, and the median per-pair ratio is gated, so host-speed
  drift over the bench lands on both sides alike instead of on
  whichever side ran last.
"""

import statistics
import time

from benchmarks.conftest import CANONICAL_SEED, print_banner
from repro.core.pipeline import ReproPipeline
from repro.obs.runtime import Observability
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=CANONICAL_SEED, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))
PAIRS = 6
#: The acceptance bar: <5% wall-time overhead with capsules on (plus
#: a few ms of absolute slack to absorb scheduler noise on a short run).
OVERHEAD_BUDGET = 0.05
SLACK_SECONDS = 0.005


def _run_once(provenance):
    obs = Observability(provenance=provenance)
    pipeline = ReproPipeline(
        scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
        observability=obs)
    start = time.perf_counter()
    pipeline.run()
    return time.perf_counter() - start, obs


def _timed_pairs():
    """``PAIRS`` (off seconds, on seconds) pairs, alternating which
    side runs first, plus the last off and on sessions."""
    pairs, sessions = [], {}
    for index in range(PAIRS):
        order = (False, True) if index % 2 == 0 else (True, False)
        seconds = {}
        for provenance in order:
            seconds[provenance], sessions[provenance] = \
                _run_once(provenance)
        pairs.append((seconds[False], seconds[True]))
    return pairs, sessions[False], sessions[True]


def test_bench_provenance_overhead():
    _run_once(False)  # warm interpreter and import caches
    pairs, off_obs, on_obs = _timed_pairs()
    ratio = statistics.median(on / off for off, on in pairs)
    off_median = statistics.median(off for off, _ in pairs)

    # Disabled is structurally free: no recorder object at all, so the
    # per-decision cost is one attribute check.
    assert off_obs.provenance is None

    # Enabled actually recorded the decision chain and stayed inside
    # the overhead budget (the slack, in seconds, scaled to the run).
    assert on_obs.provenance is not None
    n_capsules = len(on_obs.provenance.capsules)
    assert n_capsules > 0, "provenance-enabled run minted no capsules"
    assert ratio <= 1.0 + OVERHEAD_BUDGET + SLACK_SECONDS / off_median, \
        (ratio, pairs)

    print_banner(
        "Decision provenance — capsule recording overhead",
        "engineering bench (no paper analogue)",
        [*(f"pair {i}  {'off first' if i % 2 == 0 else 'on first '}  "
           f"off {off:7.3f} s  on {on:7.3f} s  "
           f"{(on / off - 1.0) * 100:+7.2f} %"
           for i, (off, on) in enumerate(pairs)),
         f"median overhead  {(ratio - 1.0) * 100:+8.2f} %  "
         f"(budget {OVERHEAD_BUDGET * 100:.0f}%, {PAIRS} pairs)",
         f"capsules         {n_capsules:8d}"])
