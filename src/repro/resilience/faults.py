"""Deterministic fault injection for the pipeline's data sources.

Real feeds fail: IODA API queries time out, KIO snapshot downloads come
back truncated, dataset exports 500 mid-page — and measurement platforms
degrade exactly when the events of interest happen.  A
:class:`FaultPlan` makes those failures *reproducible*: instrumented
sites (:func:`maybe_fault` calls inside
:meth:`repro.ioda.platform.IODAPlatform.signal`,
:meth:`repro.ioda.api.IODAClient.get_events`, and the
:mod:`repro.datasets` source loaders) consult the active plan and raise
a typed :class:`~repro.errors.TransientSourceError` when the plan says
so.

Determinism is the whole point.  Whether a given call faults is a *pure
function* of ``(plan seed, site, operation key, attempt, call index)``:

- the **operation key** and **attempt** come from the ambient
  :func:`fault_scope` the retry machinery opens around each attempt of a
  unit of work (one country's curation, one dataset load);
- the **call index** counts ``maybe_fault`` calls within that scope —
  a deterministic sequence, because each attempt runs serial code.

Nothing depends on wall clocks, scheduling, or global counters shared
across units of work, so the same plan injects the same faults on the
serial and process backends — which is what lets the test suite assert
that a fully recovered fault-injected run is byte-identical to a
fault-free one.

Plans parse from a compact CLI spec (``repro run --inject-faults SPEC``)
of ``key=value`` clauses joined by ``;``::

    rate=0.2;seed=99;kinds=error+timeout   # 20% of calls fault
    fail_first=2                           # first 2 attempts always fault
    permanent=SY+IR                        # these keys never succeed

``fail_first`` faults are guaranteed recoverable by any retry budget of
at least that many retries; ``permanent`` keys exhaust every budget and
exercise the breaker/quarantine path.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    CorruptPageError,
    SourceTimeoutError,
    TransientSourceError,
)
from repro.obs.runtime import current
from repro.rng import derive_seed

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultScope",
    "active_plan",
    "fault_scope",
    "inject",
    "maybe_fault",
]


class FaultKind(enum.Enum):
    """What kind of failure an injected fault simulates."""

    ERROR = "error"        # generic transient 5xx-style failure
    TIMEOUT = "timeout"    # deadline exceeded
    CORRUPT = "corrupt"    # response received but failed validation

    @property
    def exception(self) -> type:
        return _KIND_EXCEPTIONS[self]


_KIND_EXCEPTIONS = {
    FaultKind.ERROR: TransientSourceError,
    FaultKind.TIMEOUT: SourceTimeoutError,
    FaultKind.CORRUPT: CorruptPageError,
}

_ALL_KINDS: Tuple[FaultKind, ...] = tuple(FaultKind)


@dataclass(frozen=True, kw_only=True)
class FaultPlan:
    """A seeded, declarative description of which calls fail and how.

    Frozen and built from primitives only, so it pickles across process
    workers and fingerprints canonically.  The plan holds no mutable
    state; all call accounting lives in the ambient :class:`FaultScope`.
    """

    #: Probability any eligible call faults (drawn per call, seeded).
    rate: float = 0.0
    #: The first N attempts of every operation fault deterministically —
    #: recoverable by any retry budget >= N, which is what the
    #: byte-identity chaos tests rely on.
    fail_first: int = 0
    #: Operation keys (country ISO codes, dataset source names) whose
    #: every attempt faults — the quarantine/breaker exercise.
    permanent: Tuple[str, ...] = ()
    #: Fault kinds drawn from (round-robin for deterministic modes).
    kinds: Tuple[FaultKind, ...] = _ALL_KINDS
    #: Seed of the fault decision stream (independent of the scenario
    #: seed, so injection never perturbs world generation).
    seed: int = 0
    #: Restrict injection to these sites (empty = all sites).
    sites: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(
                f"fault rate must be in [0, 1]: {self.rate}")
        if self.fail_first < 0:
            raise ConfigurationError(
                f"fail_first must be >= 0: {self.fail_first}")
        if not self.kinds:
            raise ConfigurationError("a FaultPlan needs at least one kind")

    @property
    def empty(self) -> bool:
        """Whether the plan can never inject anything."""
        return (self.rate <= 0.0 and self.fail_first == 0
                and not self.permanent)

    # -- parsing -----------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the CLI's ``--inject-faults`` spec string.

        Clauses are ``key=value`` pairs joined by ``;``; list values use
        ``+`` as the separator.  Recognized keys: ``rate``,
        ``fail_first``, ``permanent``, ``kinds``, ``seed``, ``sites``.

        >>> FaultPlan.parse("fail_first=2;seed=7").fail_first
        2
        >>> FaultPlan.parse("permanent=SY+IR").permanent
        ('IR', 'SY')
        """
        kwargs: dict = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            key, sep, value = clause.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ConfigurationError(
                    f"malformed fault clause {clause!r}; expected key=value")
            if key == "rate":
                kwargs["rate"] = float(value)
            elif key == "fail_first":
                kwargs["fail_first"] = int(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "permanent":
                kwargs["permanent"] = tuple(sorted(
                    part.strip().upper()
                    for part in value.split("+") if part.strip()))
            elif key == "sites":
                kwargs["sites"] = tuple(sorted(
                    part.strip() for part in value.split("+")
                    if part.strip()))
            elif key == "kinds":
                try:
                    kwargs["kinds"] = tuple(
                        FaultKind(part.strip())
                        for part in value.split("+") if part.strip())
                except ValueError as exc:
                    raise ConfigurationError(
                        f"unknown fault kind in {value!r}; expected "
                        f"{'/'.join(k.value for k in FaultKind)}") from exc
            else:
                raise ConfigurationError(
                    f"unknown fault clause key {key!r}")
        return cls(**kwargs)

    # -- the decision function ----------------------------------------------------

    def decide(self, site: str, key: str, attempt: int,
               call_index: int) -> Optional[FaultKind]:
        """Whether call ``call_index`` of ``attempt`` of ``(site, key)``
        faults, and with what kind.  Pure: no state, no clock.
        """
        if self.sites and site not in self.sites:
            return None
        if key.upper() in self.permanent:
            return self.kinds[attempt % len(self.kinds)]
        if attempt < self.fail_first and call_index == 0:
            return self.kinds[attempt % len(self.kinds)]
        if self.rate > 0.0:
            rng = np.random.Generator(np.random.PCG64(derive_seed(
                self.seed, "fault", site, key, attempt, call_index)))
            if rng.random() < self.rate:
                return self.kinds[int(rng.integers(len(self.kinds)))]
        return None


@dataclass
class FaultScope:
    """One attempt of one unit of work, as seen by the injector."""

    key: str
    attempt: int
    calls: int = field(default=0)

    def next_index(self) -> int:
        index = self.calls
        self.calls += 1
        return index


# The active plan and the open scopes are process-global, mirroring
# repro.obs; units of work run one at a time in each process.
_active_plan: Optional[FaultPlan] = None
_scopes: List[FaultScope] = []


def active_plan() -> Optional[FaultPlan]:
    """The installed fault plan, or None outside any injection context."""
    return _active_plan


@contextlib.contextmanager
def inject(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Install ``plan`` for the ``with`` block (None/empty = no-op).

    Process workers re-install the plan locally.
    """
    global _active_plan
    previous = _active_plan
    _active_plan = plan if plan is not None and not plan.empty else None
    try:
        yield _active_plan
    finally:
        _active_plan = previous


@contextlib.contextmanager
def fault_scope(key: str, attempt: int = 0) -> Iterator[FaultScope]:
    """Open the ambient scope one attempt of a unit of work runs under.

    Everything :func:`maybe_fault` needs — the operation key, the retry
    attempt, and the per-attempt call counter — lives here, so the
    decision sequence is identical however the work is scheduled.
    Scopes nest; the innermost wins.
    """
    scope = FaultScope(key=key, attempt=attempt)
    _scopes.append(scope)
    try:
        yield scope
    finally:
        _scopes.pop()


def current_scope() -> Optional[FaultScope]:
    """The innermost open fault scope (or None)."""
    return _scopes[-1] if _scopes else None


def maybe_fault(site: str, key: Optional[str] = None) -> None:
    """The injection site hook: raise if the active plan faults this call.

    With no plan installed this is one global read — instrumented hot
    paths pay nothing in normal runs.  ``key`` is a fallback operation
    key for call sites used outside any retry loop (e.g. a bare
    :meth:`IODAClient.get_events` call); when a :func:`fault_scope` is
    open it takes precedence, keeping pipeline injection deterministic
    across backends.
    """
    plan = _active_plan
    if plan is None:
        return
    scope = current_scope()
    if scope is None:
        if key is None:
            return
        scope = FaultScope(key=key, attempt=0)
    kind = plan.decide(site, scope.key, scope.attempt, scope.next_index())
    if kind is None:
        return
    metrics = current().metrics
    metrics.counter("resilience.faults", site=site, kind=kind.value).inc()
    raise kind.exception(
        f"injected {kind.value} fault at {site} "
        f"(key={scope.key}, attempt={scope.attempt})")
