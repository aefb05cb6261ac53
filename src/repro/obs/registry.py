"""The persistent cross-run registry (``repro runs``).

One pipeline run leaves one journal; an *observatory* needs the runs
side by side.  A :class:`RunRegistry` is a plain on-disk index under a
runs directory::

    runs/
      e3b0c44298fc1c14/        <- content-addressed run ID
        journal.jsonl          <- the run's own journal, verbatim
        meta.json              <- extracted header: health, perf, config

Run IDs are the blake2b digest of the journal bytes, so registering the
same journal twice is a no-op and two different runs can never collide
into one slot.  ``meta.json`` carries everything the cross-run views
need without replaying the journal: the health grade and statistics
(the ``health`` event), event/span/heartbeat counts, wall seconds, the
run's config, and an optional config fingerprint (computed by the
caller — this module deliberately knows nothing about
:mod:`repro.exec`, keeping ``obs`` dependency-free).

``repro runs list`` renders the trend table across registered runs by
reusing :func:`repro.obs.baseline.trajectory_rows` — a
:class:`RunRecord` converts itself into a :class:`PerfBaseline` via
:meth:`RunRecord.as_baseline`, which is also what powers ``repro runs
diff`` through :func:`repro.obs.baseline.compare_baselines` (either
side may instead be a committed baseline JSON).  A journal filed with
``repro runs register`` carries no config, so a diff against a
baseline flags each config key the baseline sets.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.baseline import PerfBaseline
from repro.obs.journal import read_journal
from repro.obs.summary import summarize_events

__all__ = ["REGISTRY_VERSION", "RunRecord", "RunRegistry", "run_id_for"]

#: ``meta.json`` schema version.
REGISTRY_VERSION = 1

_META_NAME = "meta.json"
_JOURNAL_NAME = "journal.jsonl"


def run_id_for(journal_bytes: bytes) -> str:
    """The content-addressed run ID of a journal (16 hex chars)."""
    return hashlib.blake2b(journal_bytes, digest_size=8).hexdigest()


def _iso(ts: Optional[float]) -> str:
    if ts is None:
        return "?"
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(float(ts)))


@dataclass(frozen=True, kw_only=True)
class RunRecord:
    """One registered run: the ``meta.json`` contents plus its home."""

    run_id: str
    name: str
    #: The run's own start time (from ``run_start``), ISO-8601 UTC.
    created: str
    #: When the run entered the registry (re-registration keeps the
    #: original ``created``).
    registered: str
    config: Mapping[str, Any] = field(default_factory=dict)
    #: Content fingerprint of the run's configuration (supplied by the
    #: caller; empty when unknown).
    fingerprint: str = ""
    grade: str = "pass"
    #: The health statistics mapping (fidelity + perf floats).
    stats: Mapping[str, float] = field(default_factory=dict)
    n_events: int = 0
    n_spans: int = 0
    n_heartbeats: int = 0
    #: Lineage capsules in the journal (0 unless the run recorded
    #: provenance; see :mod:`repro.obs.provenance`).
    n_provenance: int = 0
    #: Decision-outcome tallies from the adjudication capsules, keyed
    #: ``"outcome:reason"`` (e.g. ``"dismissed:no_corroboration"``).
    decisions: Mapping[str, int] = field(default_factory=dict)
    run_seconds: float = 0.0
    #: The run's directory inside the registry.
    path: Optional[Path] = None

    @property
    def journal_path(self) -> Optional[Path]:
        return None if self.path is None else self.path / _JOURNAL_NAME

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": REGISTRY_VERSION,
            "run_id": self.run_id,
            "name": self.name,
            "created": self.created,
            "registered": self.registered,
            "config": dict(self.config),
            "fingerprint": self.fingerprint,
            "grade": self.grade,
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
            "n_events": self.n_events,
            "n_spans": self.n_spans,
            "n_heartbeats": self.n_heartbeats,
            "n_provenance": self.n_provenance,
            "decisions": {k: self.decisions[k]
                          for k in sorted(self.decisions)},
            "run_seconds": self.run_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  path: Optional[Path] = None) -> "RunRecord":
        return cls(
            run_id=str(data.get("run_id", "?")),
            name=str(data.get("name", "?")),
            created=str(data.get("created", "?")),
            registered=str(data.get("registered", "?")),
            config=dict(data.get("config", {})),
            fingerprint=str(data.get("fingerprint", "")),
            grade=str(data.get("grade", "pass")),
            stats={str(k): float(v)
                   for k, v in data.get("stats", {}).items()},
            n_events=int(data.get("n_events", 0)),
            n_spans=int(data.get("n_spans", 0)),
            n_heartbeats=int(data.get("n_heartbeats", 0)),
            n_provenance=int(data.get("n_provenance", 0)),
            decisions={str(k): int(v)
                       for k, v in data.get("decisions", {}).items()},
            run_seconds=float(data.get("run_seconds", 0.0)),
            path=path)

    def as_baseline(self) -> PerfBaseline:
        """The record as a perf baseline (trend table / ``runs diff``)."""
        return PerfBaseline.capture(
            name=self.name, config=self.config, statistics=self.stats,
            health_grade=self.grade, created=self.created)

    def rows(self) -> List[str]:
        """Human-readable ``repro runs show`` lines."""
        lines = [
            f"run             {self.run_id}  ({self.name})",
            f"  created       {self.created}",
            f"  registered    {self.registered}",
            f"  grade         {self.grade}",
            f"  journal       {self.n_events} events, {self.n_spans} "
            f"spans, {self.n_heartbeats} heartbeats, "
            f"{self.run_seconds:.2f}s",
        ]
        if self.n_provenance:
            lines.append(f"  provenance    {self.n_provenance} capsules")
            for key in sorted(self.decisions):
                lines.append(f"    {key:<30} {self.decisions[key]}")
        if self.fingerprint:
            lines.append(f"  fingerprint   {self.fingerprint}")
        if self.config:
            config = " ".join(f"{k}={self.config[k]}"
                              for k in sorted(self.config))
            lines.append(f"  config        {config}")
        for key in sorted(self.stats):
            lines.append(f"  {key:<32} {self.stats[key]:g}")
        return lines


class RunRegistry:
    """The on-disk run index under one runs directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # -- writing -----------------------------------------------------------------

    def register(self, journal: Union[str, Path], *,
                 name: Optional[str] = None,
                 config: Optional[Mapping[str, Any]] = None,
                 fingerprint: str = "",
                 move: bool = False) -> RunRecord:
        """File a journal into the registry; returns its record.

        Content-addressed and idempotent: the same journal bytes always
        land in (or re-resolve to) the same slot.  ``move`` relocates
        the source file into the registry instead of copying — the
        pipeline uses it for journals it already wrote under the runs
        directory.
        """
        source = Path(journal)
        data = source.read_bytes()
        run_id = run_id_for(data)
        run_dir = self.root / run_id
        meta_path = run_dir / _META_NAME
        if meta_path.exists():
            record = self._load(run_dir)
            if record is not None:
                if move and source.resolve() != (
                        run_dir / _JOURNAL_NAME).resolve():
                    source.unlink()
                return record
        run_dir.mkdir(parents=True, exist_ok=True)
        dest = run_dir / _JOURNAL_NAME
        if move:
            source.replace(dest)
        else:
            dest.write_bytes(data)

        events = read_journal(dest)
        summary = summarize_events(events)
        health: Dict[str, Any] = {}
        started: Optional[float] = None
        decisions: Dict[str, int] = {}
        for event in events:
            if event.get("type") == "health":
                health = event
            elif event.get("type") == "run_start" and started is None:
                started = event.get("ts")
            elif event.get("type") == "provenance":
                # Adjudication capsules carry (outcome, reason); merged
                # lifecycle capsules only an outcome.
                outcome = event.get("outcome")
                if outcome is not None:
                    key = (f"{outcome}:{event['reason']}"
                           if "reason" in event else str(outcome))
                    decisions[key] = decisions.get(key, 0) + 1
        record = RunRecord(
            run_id=run_id,
            name=name or run_id[:8],
            created=_iso(started),
            registered=time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                     time.gmtime()),
            config=dict(config or {}),
            fingerprint=fingerprint,
            grade=str(health.get("grade", "pass")),
            stats={str(k): float(v)
                   for k, v in health.get("stats", {}).items()},
            n_events=summary.n_events,
            n_spans=summary.n_spans,
            n_heartbeats=summary.n_heartbeats,
            n_provenance=summary.n_provenance,
            decisions=decisions,
            run_seconds=round(summary.run_seconds, 6),
            path=run_dir)
        meta_path.write_text(
            json.dumps(record.as_dict(), indent=2) + "\n",
            encoding="utf-8")
        return record

    # -- reading -----------------------------------------------------------------

    def _load(self, run_dir: Path) -> Optional[RunRecord]:
        try:
            data = json.loads((run_dir / _META_NAME).read_text(
                encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        return RunRecord.from_dict(data, path=run_dir)

    def records(self) -> List[RunRecord]:
        """Every readable registered run, oldest first."""
        if not self.root.is_dir():
            return []
        records = []
        for run_dir in sorted(self.root.iterdir()):
            if not run_dir.is_dir():
                continue
            record = self._load(run_dir)
            if record is not None:
                records.append(record)
        return sorted(records, key=lambda r: (r.created, r.run_id))

    def get(self, token: str) -> RunRecord:
        """Resolve a run by full ID, unique ID prefix, or name.

        Names resolve to the *newest* run carrying them; ambiguous
        ID prefixes raise ``KeyError`` listing the candidates.
        """
        records = self.records()
        by_id = {r.run_id: r for r in records}
        if token in by_id:
            return by_id[token]
        prefixed = [r for r in records if r.run_id.startswith(token)]
        if len(prefixed) == 1:
            return prefixed[0]
        if len(prefixed) > 1:
            ids = ", ".join(r.run_id for r in prefixed)
            raise KeyError(
                f"run ID prefix {token!r} is ambiguous: {ids}")
        named = [r for r in records if r.name == token]
        if named:
            return named[-1]
        raise KeyError(
            f"no run {token!r} in registry {self.root} "
            f"({len(records)} runs registered)")

    def rows(self) -> List[str]:
        """The cross-run trend table (``repro runs list``)."""
        from repro.obs.baseline import trajectory_rows
        records = self.records()
        if not records:
            return [f"no runs registered under {self.root}"]
        return trajectory_rows([r.as_baseline() for r in records])
