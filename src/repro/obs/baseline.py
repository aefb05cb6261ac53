"""Stored perf+fidelity baselines and regression comparison.

A reproduction is only checkable against a memory: did this
configuration still reproduce the paper, and what did it cost *last*
time?  A
:class:`PerfBaseline` is that memory: one JSON file (under
``benchmarks/baselines/`` by convention) capturing a named run's

- **config** — seed, backend, workers, shards: what was run;
- **fidelity** — the health statistics (event populations, match
  fractions, curated record count): what came out;
- **perf** — per-stage and total wall seconds, cache hit/miss counts:
  what it cost; and
- **health** — the scorecard grade at record time.

A registered run converts into one
(:meth:`repro.obs.registry.RunRecord.as_baseline`), so ``repro runs
diff A B`` compares any two runs or committed baselines (exit
status is the CI contract: non-zero on regression), and ``repro runs
list`` renders the registered runs as a trajectory table.  A new
committed baseline is a filed run saved as JSON::

    save_baseline(RunRegistry(RUNS_DIR).get(NAME).as_baseline(), PATH)

Comparison semantics: config and fidelity must match **exactly** — the
pipeline is deterministic, so any drift on an unchanged config is a
behaviour change, not noise, and a value missing on either side is a
regression too.  The perf half (``perf.*`` wall seconds, ``cache.*``
counters) is reported beside them as trend data and never fails a
comparison: wall time on a shared machine is judged by the repository
benchmark (``perfbench/``), which rescales it to the host's speed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = ["BASELINE_DIR", "BASELINE_VERSION", "BaselineComparison",
           "ComparisonEntry", "PerfBaseline", "compare_baselines",
           "load_baseline", "save_baseline", "trajectory_rows"]

#: Baseline schema version, stamped into every file.
BASELINE_VERSION = 1

#: Conventional home of committed baselines (the BENCH trajectory).
BASELINE_DIR = Path("benchmarks/baselines")

_FIDELITY_EPS = 1e-9


@dataclass(frozen=True, kw_only=True)
class PerfBaseline:
    """One named, stored perf+fidelity snapshot."""

    name: str
    created: str
    config: Mapping[str, Any] = field(default_factory=dict)
    fidelity: Mapping[str, float] = field(default_factory=dict)
    perf: Mapping[str, float] = field(default_factory=dict)
    health_grade: str = "pass"
    version: int = BASELINE_VERSION

    @classmethod
    def capture(cls, *, name: str, config: Mapping[str, Any],
                statistics: Mapping[str, float],
                health_grade: str = "pass",
                created: Optional[str] = None) -> "PerfBaseline":
        """Split a run-statistics mapping into a storable baseline.

        ``statistics`` is the :func:`repro.obs.health.run_statistics`
        mapping: ``perf.*`` and ``cache.*`` keys become the perf half,
        everything else the fidelity half.  ``created`` overrides the
        timestamp (the run registry passes the run's own start time so
        re-registering an old journal does not rewrite history).
        """
        fidelity = {k: float(v) for k, v in statistics.items()
                    if not k.startswith(("perf.", "cache."))}
        perf = {k: float(v) for k, v in statistics.items()
                if k.startswith(("perf.", "cache."))}
        if created is None:
            created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        return cls(name=name, created=created, config=dict(config),
                   fidelity=fidelity, perf=perf,
                   health_grade=health_grade)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "name": self.name,
            "created": self.created,
            "config": dict(self.config),
            "fidelity": {k: self.fidelity[k]
                         for k in sorted(self.fidelity)},
            "perf": {k: self.perf[k] for k in sorted(self.perf)},
            "health_grade": self.health_grade,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerfBaseline":
        return cls(
            name=str(data.get("name", "?")),
            created=str(data.get("created", "?")),
            config=dict(data.get("config", {})),
            fidelity={str(k): float(v)
                      for k, v in data.get("fidelity", {}).items()},
            perf={str(k): float(v)
                  for k, v in data.get("perf", {}).items()},
            health_grade=str(data.get("health_grade", "pass")),
            version=int(data.get("version", BASELINE_VERSION)))


def save_baseline(baseline: PerfBaseline,
                  path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(baseline.as_dict(), indent=2,
                               sort_keys=False) + "\n",
                    encoding="utf-8")
    return path


def load_baseline(path: Union[str, Path]) -> PerfBaseline:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    # Every saved baseline carries its schema version; other JSON under
    # the baseline directory (the ledger work counts) is not one.
    if not isinstance(data, dict) or "version" not in data:
        raise ValueError(f"not a baseline file: {path}")
    return PerfBaseline.from_dict(data)


# -- comparison ------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonEntry:
    """One metric's baseline-vs-current verdict."""

    name: str
    kind: str  # "config" | "fidelity" | "perf"
    #: A float, or for a config entry the raw setting (seed, backend).
    baseline: Any
    current: Any
    status: str  # "ok" | "regression" | "missing"

    def row(self) -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, (int, float)):
                return f"{value:g}"
            return "-" if value is None else str(value)

        return (f"  [{self.status:<10}] {self.name:<32} "
                f"{fmt(self.baseline):>12} -> {fmt(self.current):>12}")


@dataclass(frozen=True)
class BaselineComparison:
    """The full diff of a current run against a stored baseline."""

    baseline_name: str
    entries: Tuple[ComparisonEntry, ...]

    @property
    def regressions(self) -> Tuple[ComparisonEntry, ...]:
        return tuple(e for e in self.entries
                     if e.status in ("regression", "missing"))

    @property
    def ok(self) -> bool:
        return not self.regressions

    def rows(self) -> List[str]:
        lines = [f"baseline        {self.baseline_name}  "
                 f"({'OK' if self.ok else 'REGRESSION'}: "
                 f"{len(self.regressions)} regressed of "
                 f"{len(self.entries)} metrics)"]
        lines.extend(entry.row() for entry in self.entries)
        return lines


def compare_baselines(current: PerfBaseline,
                      baseline: PerfBaseline) -> BaselineComparison:
    """Diff ``current`` against ``baseline`` (see module docstring)."""
    entries: List[ComparisonEntry] = []

    for key in sorted(set(baseline.config) | set(current.config)):
        base, cur = baseline.config.get(key), current.config.get(key)
        if base != cur:
            entries.append(ComparisonEntry(
                name=f"config.{key}", kind="config",
                baseline=base, current=cur, status="regression"))

    for name in sorted(set(baseline.fidelity) | set(current.fidelity)):
        base = baseline.fidelity.get(name)
        cur = current.fidelity.get(name)
        if base is None or cur is None:
            status = "missing"
        elif abs(base - cur) <= _FIDELITY_EPS:
            status = "ok"
        else:
            status = "regression"
        entries.append(ComparisonEntry(
            name=name, kind="fidelity", baseline=base, current=cur,
            status=status))

    # Trend data: reported, never a regression (see module docstring).
    for name in sorted(baseline.perf):
        entries.append(ComparisonEntry(
            name=name, kind="perf", baseline=baseline.perf[name],
            current=current.perf.get(name), status="ok"))

    return BaselineComparison(baseline_name=baseline.name,
                              entries=tuple(entries))


# -- trajectory ------------------------------------------------------------------


def trajectory_rows(baselines: List[PerfBaseline]) -> List[str]:
    """The perf trajectory table across stored baselines, oldest first."""
    if not baselines:
        return ["no baselines recorded"]
    header = (f"{'name':<24} {'created':<20} {'total_s':>9} "
              f"{'curate_s':>9} {'records':>8} {'hit_rate':>8} "
              f"{'health':>6}")
    lines = [header, "-" * len(header)]
    for b in baselines:
        total = b.perf.get("perf.total_seconds")
        curate = b.perf.get("perf.stage_seconds.curate")
        records = b.fidelity.get("records.curated")
        hit_rate = b.perf.get("cache.hit_rate")

        def fmt(value: Optional[float], spec: str) -> str:
            return "-" if value is None else format(value, spec)

        lines.append(
            f"{b.name:<24} {b.created:<20} {fmt(total, '9.2f'):>9} "
            f"{fmt(curate, '9.2f'):>9} {fmt(records, '8.0f'):>8} "
            f"{fmt(hit_rate, '8.2f'):>8} {b.health_grade:>6}")
    return lines
