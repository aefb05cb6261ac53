"""Per-source circuit breakers.

A :class:`CircuitBreaker` guards one data source (one country's platform
feed, one dataset loader) with the classic three-state machine:

- **closed** — calls flow; consecutive transient failures are counted.
- **open** — after ``failure_threshold`` consecutive failures the
  breaker trips and :meth:`allow` rejects calls outright, so a dead
  source stops burning retry budget for everyone behind it.
- **half-open** — after ``cooldown_calls`` rejected calls the breaker
  lets probes through again; ``half_open_successes`` consecutive
  successes close it, any failure re-opens it.

Cooldown is counted in *rejected calls* rather than wall-clock seconds:
the pipeline is a deterministic simulation, and a time-based cooldown
would make breaker trajectories (and therefore quarantine decisions)
depend on host speed.  Call-count cooldown keeps the whole resilience
layer a pure function of the fault plan.

State transitions are counted into the active observability session
(``resilience.breaker.opened`` / ``.half_open`` / ``.closed`` /
``.rejected``, labelled by source), so a run journal shows exactly when
each source tripped and recovered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.obs.runtime import current

__all__ = ["BreakerPolicy", "BreakerState", "CircuitBreaker",
           "BreakerBoard"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True, kw_only=True)
class BreakerPolicy:
    """Thresholds for every breaker of one run."""

    #: Consecutive transient failures that trip the breaker.
    failure_threshold: int = 3
    #: Rejected calls an open breaker absorbs before going half-open.
    cooldown_calls: int = 2
    #: Consecutive half-open successes that close the breaker again.
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1: {self.failure_threshold}")
        if self.cooldown_calls < 1:
            raise ConfigurationError(
                f"cooldown_calls must be >= 1: {self.cooldown_calls}")
        if self.half_open_successes < 1:
            raise ConfigurationError(
                f"half_open_successes must be >= 1: "
                f"{self.half_open_successes}")


class CircuitBreaker:
    """The state machine guarding one source."""

    def __init__(self, policy: BreakerPolicy | None = None, *,
                 source: str = ""):
        self._policy = policy or BreakerPolicy()
        self._source = source
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._rejections = 0
        self._probe_successes = 0

    @property
    def state(self) -> BreakerState:
        return self._state

    @property
    def source(self) -> str:
        return self._source

    def allow(self) -> bool:
        """Whether the next call may proceed (open breakers reject)."""
        if self._state is not BreakerState.OPEN:
            return True
        self._rejections += 1
        if self._rejections >= self._policy.cooldown_calls:
            self._transition(BreakerState.HALF_OPEN)
            return True
        current().metrics.counter("resilience.breaker.rejected",
                                  source=self._source).inc()
        return False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self._state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self._policy.half_open_successes:
                self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN)
        elif (self._state is BreakerState.CLOSED
                and self._consecutive_failures
                >= self._policy.failure_threshold):
            self._transition(BreakerState.OPEN)

    def _transition(self, state: BreakerState) -> None:
        self._state = state
        self._rejections = 0
        self._probe_successes = 0
        if state is BreakerState.OPEN:
            self._consecutive_failures = 0
        name = {BreakerState.OPEN: "resilience.breaker.opened",
                BreakerState.HALF_OPEN: "resilience.breaker.half_open",
                BreakerState.CLOSED: "resilience.breaker.closed"}[state]
        current().metrics.counter(name, source=self._source).inc()


class BreakerBoard:
    """Creates and holds one breaker per source name."""

    def __init__(self, policy: BreakerPolicy | None = None):
        self._policy = policy or BreakerPolicy()
        self._breakers: Dict[str, CircuitBreaker] = {}

    def get(self, source: str) -> CircuitBreaker:
        breaker = self._breakers.get(source)
        if breaker is None:
            breaker = self._breakers[source] = CircuitBreaker(
                self._policy, source=source)
        return breaker

