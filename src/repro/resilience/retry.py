"""Retry with exponential backoff and seeded jitter.

:class:`RetryPolicy` describes the budget and the backoff curve; the
schedule of delays for a given operation key is **deterministic** —
jitter is drawn from the repro RNG substreams
(:func:`repro.rng.substream` over ``(policy seed, key, attempt)``), so
the same policy produces the same schedule on every backend and every
run.  That determinism is load-bearing: retry timing must never become
a hidden source of nondeterminism in a pipeline whose headline guarantee
is byte-identical output.

Wrap the operation in a closure::

    records = call_with_retry(
        lambda: pipeline.investigate_country(iso2, windows, period),
        policy=policy, key=iso2, site="curate.country", breaker=breaker)

Each attempt runs under a :func:`repro.resilience.faults.fault_scope`,
which is how the fault injector keys its deterministic decisions; only
:class:`~repro.errors.TransientSourceError` (and subclasses) are
retried — programming errors propagate immediately.  Attempt counts,
exhaustions, and backoff seconds are recorded into the active
observability session's metrics registry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, TypeVar

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    RetriesExhaustedError,
    TransientSourceError,
)
from repro.obs.metrics import ATTEMPT_BUCKETS
from repro.obs.runtime import current
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import fault_scope
from repro.rng import substream

__all__ = ["RetryPolicy", "call_with_retry"]

T = TypeVar("T")


@dataclass(frozen=True, kw_only=True)
class RetryPolicy:
    """Budget and backoff shape for retried source operations."""

    #: Retries after the first attempt (total attempts = max_retries + 1).
    max_retries: int = 3
    #: First backoff delay, seconds.
    base_delay: float = 0.01
    #: Exponential growth factor between attempts.
    multiplier: float = 2.0
    #: Ceiling on any single delay, seconds.
    max_delay: float = 1.0
    #: Multiplicative jitter span: each delay is scaled by a factor drawn
    #: uniformly from [1, 1 + jitter] out of the policy's RNG substream.
    jitter: float = 0.5
    #: Seed of the jitter substream (independent of the scenario seed).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0: {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1: {self.multiplier}")
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0: {self.jitter}")

    def delays(self, key: str) -> Tuple[float, ...]:
        """The full backoff schedule for operation ``key``, seconds.

        Deterministic: same (policy, key) -> same schedule, any backend.

        >>> policy = RetryPolicy(seed=7)
        >>> policy.delays("SY") == policy.delays("SY")
        True
        >>> policy.delays("SY") != policy.delays("IR")
        True
        """
        schedule = []
        for attempt in range(self.max_retries):
            base = min(self.max_delay,
                       self.base_delay * self.multiplier ** attempt)
            rng = substream(self.seed, "retry-backoff", key, attempt)
            schedule.append(base * (1.0 + self.jitter * float(rng.random())))
        return tuple(schedule)


def call_with_retry(fn: Callable[[], T], *, policy: RetryPolicy,
                    key: str, site: str,
                    breaker: Optional[CircuitBreaker] = None,
                    sleeper: Callable[[float], None] = time.sleep) -> T:
    """Run ``fn`` under the retry policy, faults scoped per attempt.

    Raises :class:`CircuitOpenError` without calling ``fn`` when the
    breaker rejects the source, and :class:`RetriesExhaustedError` (from
    the last transient failure) when the budget runs out.
    """
    metrics = current().metrics
    delays = policy.delays(key)
    attempt = 0
    while True:
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"circuit for {key!r} is open at {site}; skipping call")
        try:
            with fault_scope(key, attempt):
                result = fn()
        except TransientSourceError as exc:
            if breaker is not None:
                breaker.record_failure()
            metrics.counter("resilience.retry.failures", site=site).inc()
            if attempt >= policy.max_retries:
                metrics.counter("resilience.retry.exhausted",
                                site=site).inc()
                raise RetriesExhaustedError(
                    f"{site} failed for {key!r} after {attempt + 1} "
                    f"attempts: {exc}") from exc
            delay = delays[attempt]
            metrics.histogram("resilience.retry.backoff_seconds",
                              site=site).observe(delay)
            sleeper(delay)
            attempt += 1
            continue
        if breaker is not None:
            breaker.record_success()
        metrics.histogram("resilience.retry.attempts",
                          buckets=ATTEMPT_BUCKETS,
                          site=site).observe(attempt + 1)
        return result

