"""Run-health scorecard: paper-fidelity and operational checks.

A measurement platform is healthy when its *signal* is right, not
merely when it finished.  After every pipeline run a
:class:`HealthPolicy` grades the run's statistics — headline event
populations (the paper's 219-shutdown / 714-outage shape), match
fractions and quarantined countries — against declared targets with
tolerances.  Wall time is not graded here: the repository benchmark
(``perfbench/``) judges it.  Each check lands on ``pass``,
``warn``, or ``fail``; the report's overall grade is the worst check.

The report is machine-readable end to end: it becomes a ``health``
event in the run journal (``repro health RUN.jsonl`` replays it), the
``fidelity`` half of a stored perf baseline
(:mod:`repro.obs.baseline`), and a plain result object with ``rows()``
for terminal rendering.

Check modes:

- ``relative`` — deviation is ``|value - target| / |target|``; the
  tolerances are fractional deviations.  Used for the paper-population
  targets, where the synthetic world reproduces the *shape* rather
  than the exact counts.
- ``ceiling`` — deviation is how far the value overshoots the target,
  in the statistic's own units.  Used for budgets: quarantined
  countries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, \
    Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.pipeline import PipelineResult
    from repro.exec.stats import ExecStats

__all__ = ["CheckResult", "HealthCheck", "HealthPolicy", "HealthReport",
           "default_policy", "evaluate_run", "run_statistics"]

#: Grade ordering; the report's grade is the worst across checks.
GRADES = ("pass", "warn", "fail")

MODES = ("relative", "ceiling")


@dataclass(frozen=True, kw_only=True)
class HealthCheck:
    """One statistic's target and its tolerance bands."""

    #: Key into the run-statistics mapping (see :func:`run_statistics`).
    name: str
    #: The declared target value.
    target: float = 0.0
    #: Deviation beyond which the check grades ``warn``.
    warn: float = 0.0
    #: Deviation beyond which the check grades ``fail``.
    fail: float = 0.0
    mode: str = "relative"
    #: Human context (e.g. the paper table the target comes from).
    note: str = ""

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown check mode {self.mode!r}; expected one of "
                f"{MODES}")
        if self.fail < self.warn:
            raise ValueError(
                f"{self.name}: fail tolerance {self.fail} must be >= "
                f"warn tolerance {self.warn}")

    def grade(self, value: Optional[float]) -> "CheckResult":
        """Grade one observed value against this check."""
        if value is None:
            return CheckResult(check=self, value=None, deviation=None,
                               grade="warn")
        value = float(value)
        if self.mode == "ceiling":
            deviation = max(0.0, value - self.target)
        else:
            scale = max(abs(self.target), 1e-12)
            deviation = abs(value - self.target) / scale
        if deviation > self.fail:
            grade = "fail"
        elif deviation > self.warn:
            grade = "warn"
        else:
            grade = "pass"
        return CheckResult(check=self, value=value,
                           deviation=round(deviation, 6), grade=grade)


@dataclass(frozen=True)
class CheckResult:
    """One graded check: observed value vs the declared target."""

    check: HealthCheck
    value: Optional[float]
    deviation: Optional[float]
    grade: str

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.check.name,
            "mode": self.check.mode,
            "target": self.check.target,
            "warn": self.check.warn,
            "fail": self.check.fail,
            "note": self.check.note,
            "value": self.value,
            "deviation": self.deviation,
            "grade": self.grade,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CheckResult":
        check = HealthCheck(
            name=str(data["name"]), mode=str(data.get("mode", "relative")),
            target=float(data.get("target", 0.0)),
            warn=float(data.get("warn", 0.0)),
            fail=float(data.get("fail", 0.0)),
            note=str(data.get("note", "")))
        value = data.get("value")
        deviation = data.get("deviation")
        return cls(check=check,
                   value=None if value is None else float(value),
                   deviation=None if deviation is None
                   else float(deviation),
                   grade=str(data.get("grade", "warn")))


@dataclass(frozen=True)
class HealthReport:
    """The graded scorecard of one run."""

    grade: str
    results: Tuple[CheckResult, ...]
    #: The full statistics mapping the checks were graded over — kept
    #: so baselines and journals can track uncovered statistics too.
    stats: Mapping[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> Tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.grade == "fail")

    @property
    def warned(self) -> Tuple[CheckResult, ...]:
        return tuple(r for r in self.results if r.grade == "warn")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "grade": self.grade,
            "checks": [r.as_dict() for r in self.results],
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }

    def as_event(self) -> Dict[str, Any]:
        """The report's journal-event form."""
        event = self.as_dict()
        event["type"] = "health"
        return event

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HealthReport":
        results = tuple(CheckResult.from_dict(c)
                        for c in data.get("checks", ()))
        return cls(grade=str(data.get("grade", "warn")), results=results,
                   stats=dict(data.get("stats", {})))

    def rows(self) -> List[str]:
        """Human-readable scorecard lines."""
        lines = [f"health          {self.grade.upper()} "
                 f"({len(self.results)} checks: "
                 f"{sum(r.grade == 'pass' for r in self.results)} pass, "
                 f"{len(self.warned)} warn, {len(self.failed)} fail)"]
        for result in self.results:
            check = result.check
            value = ("missing" if result.value is None
                     else f"{result.value:g}")
            if check.mode == "ceiling":
                detail = (f"budget {check.target:g} "
                          f"(warn >+{check.warn:g}, fail >+{check.fail:g})")
            else:
                detail = (f"target {check.target:g} "
                          f"±{check.warn:.0%}/{check.fail:.0%}")
            lines.append(
                f"  [{result.grade:<4}] {check.name:<28} {value:>10}  "
                f"{detail}")
        return lines


@dataclass(frozen=True, kw_only=True)
class HealthPolicy:
    """The set of checks graded after a run."""

    checks: Tuple[HealthCheck, ...] = ()

    def evaluate(self, stats: Mapping[str, float]) -> HealthReport:
        """Grade ``stats`` against every check (worst grade wins)."""
        results = tuple(check.grade(stats.get(check.name))
                        for check in self.checks)
        worst = max((GRADES.index(r.grade) for r in results), default=0)
        return HealthReport(grade=GRADES[worst], results=results,
                            stats=dict(stats))


def default_policy() -> HealthPolicy:
    """The paper-fidelity scorecard (Bischof et al., SIGCOMM 2023).

    Targets are the paper's headline populations; tolerances are wide
    because the synthetic world reproduces the *shape* of each result,
    not the exact census (see EXPERIMENTS.md).  A run that drifts past
    the warn band has probably changed behaviour; past the fail band it
    no longer reproduces the paper.
    """
    return HealthPolicy(checks=(
        HealthCheck(name="events.union_shutdowns", target=219,
                    warn=0.25, fail=0.60,
                    note="Table 2 union shutdown set"),
        HealthCheck(name="events.spontaneous_outages", target=714,
                    warn=0.25, fail=0.60,
                    note="Table 2 spontaneous outages"),
        HealthCheck(name="events.ioda_shutdowns", target=182,
                    warn=0.35, fail=0.75,
                    note="Table 2 IODA shutdown events"),
        HealthCheck(name="events.kio_shutdowns", target=82,
                    warn=0.45, fail=0.80,
                    note="Table 2 KIO country-level entries"),
        HealthCheck(name="countries.shutdown", target=35,
                    warn=0.45, fail=0.80,
                    note="Table 2 shutdown countries"),
        HealthCheck(name="countries.outage", target=150,
                    warn=0.20, fail=0.50,
                    note="Table 2 outage countries"),
        HealthCheck(name="match.kio_matched_fraction", target=45 / 82,
                    warn=0.35, fail=0.70,
                    note="Table 2 KIO entries matched to IODA"),
        HealthCheck(name="match.ioda_matched_fraction", target=152 / 182,
                    warn=0.20, fail=0.50,
                    note="Table 2 IODA shutdowns matched to KIO"),
        HealthCheck(name="resilience.quarantined", target=0,
                    warn=0, fail=5, mode="ceiling",
                    note="countries dropped by the resilience layer"),
    ))


def run_statistics(result: "PipelineResult",
                   stats: Optional["ExecStats"] = None
                   ) -> Dict[str, float]:
    """The statistics a health policy grades, from one run's outputs.

    Every value is a plain float so the mapping serializes into the
    journal and into perf baselines unchanged.
    """
    merged = result.merged
    kio_total = len(merged.kio_full_network)
    ioda_shutdowns = len(merged.ioda_shutdowns())
    out: Dict[str, float] = {
        "events.kio_shutdowns": float(kio_total),
        "events.ioda_shutdowns": float(ioda_shutdowns),
        "events.spontaneous_outages": float(len(merged.ioda_outages())),
        "events.union_shutdowns": float(merged.total_shutdown_events()),
        "countries.shutdown": float(len(merged.shutdown_countries())),
        "countries.outage": float(len(merged.outage_countries())),
        "match.kio_matched_fraction": (
            merged.kio_matched_count() / kio_total if kio_total else 0.0),
        "match.ioda_matched_fraction": (
            merged.ioda_matched_count() / ioda_shutdowns
            if ioda_shutdowns else 0.0),
        "records.curated": float(len(result.curated_records)),
    }
    if stats is not None:
        out["resilience.quarantined"] = float(len(stats.quarantined))
        out.update(stats.perf_statistics())
    return out


def evaluate_run(result: "PipelineResult",
                 stats: Optional["ExecStats"] = None,
                 policy: Optional[HealthPolicy] = None) -> HealthReport:
    """Grade one finished run (default: the paper-fidelity policy)."""
    if policy is None:
        policy = default_policy()
    return policy.evaluate(run_statistics(result, stats))
