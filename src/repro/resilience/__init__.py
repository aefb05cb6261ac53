"""repro.resilience — surviving the pipeline's own data sources.

The paper's pipeline is only as good as its feeds, and real feeds fail —
often exactly when the events of interest happen.  This package makes
failure a first-class, *deterministic* part of the system:

- :mod:`repro.resilience.faults` — a seeded :class:`FaultPlan` injects
  transient errors, timeouts, and corrupt pages into the instrumented
  sites (IODA platform/client queries, dataset loaders) as a pure
  function of the plan, so chaos runs reproduce exactly on every
  backend.
- :mod:`repro.resilience.retry` — :class:`RetryPolicy` and
  :func:`call_with_retry`: exponential backoff whose jitter comes from
  the repro RNG substreams.
- :mod:`repro.resilience.breaker` — per-source :class:`CircuitBreaker`
  with call-count cooldown (closed → open → half-open → closed).
- :mod:`repro.resilience.config` — :class:`ResilienceConfig`, the knob
  bundle callers pass as `repro.api.run(resilience=ResilienceConfig(...))`;
  the CLI (`run --inject-faults/--max-retries/--fail-fast/--degrade`)
  builds the same config.

The headline invariants, enforced by tests/test_resilience_exec.py:
a fault-injected run whose every fault is retriable within policy is
**byte-identical** to a fault-free run on the serial and process
backends; a permanently failing country is **quarantined** —
the merge proceeds with the survivors and the run reports
``degraded=True`` plus the quarantined countries in
:class:`~repro.exec.ExecStats` and the obs journal.
"""

from repro.resilience.breaker import (
    BreakerBoard,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.config import ResilienceConfig
from repro.resilience.faults import (
    FaultKind,
    FaultPlan,
    fault_scope,
    inject,
    maybe_fault,
)
from repro.resilience.retry import RetryPolicy, call_with_retry

__all__ = [
    "BreakerBoard",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "FaultKind",
    "FaultPlan",
    "ResilienceConfig",
    "RetryPolicy",
    "call_with_retry",
    "fault_scope",
    "inject",
    "maybe_fault",
]
