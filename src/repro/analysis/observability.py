"""Observability: what the system saw, and what running it cost.

Two reports live here:

- Signal observability (Figure 16, §5.3): for each signal, the
  percentage of shutdown and spontaneous-outage events whose curated
  record marks the signal as humanly visible, plus the percentage
  visible in all three signals simultaneously.
- Execution observability: the :class:`repro.exec.ExecStats` report
  for a pipeline run (``stats.rows()`` renders it) — per-stage wall time, shard-cache hit/miss
  counters, and shard skew — as surfaced by ``repro run --stats``.
  Since :mod:`repro.obs` landed, that report is a derived view over the
  run's span tree (:meth:`ExecStats.from_obs`); the full tree plus
  metrics live in the run journal and the ``--trace`` Chrome export,
  summarized by ``repro trace summarize`` (:mod:`repro.obs.summary`).
- Run health: the :class:`repro.obs.HealthReport` fidelity scorecard
  for a run (``report.rows()`` renders it) — event populations, match fractions, and
  operational budgets graded against the paper's targets — as surfaced
  by ``repro run --health`` and ``repro health RUN.jsonl``.

:class:`ExecStats` and :class:`HealthReport` are re-exported from
:mod:`repro.analysis` and :mod:`repro.api` as the stable import path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from repro.core.labeling import LabeledEvent
from repro.core.merge import MergedDataset
from repro.errors import SignalError
from repro.exec.stats import ExecStats
from repro.obs.health import HealthReport
from repro.signals.kinds import SignalKind

__all__ = ["ExecStats", "HealthReport", "ObservabilityTable",
           "observability_table"]


@dataclass(frozen=True)
class ObservabilityTable:
    """Figure 16's bars."""

    shutdown_pct: Mapping[SignalKind, float]
    outage_pct: Mapping[SignalKind, float]
    shutdown_all_pct: float
    outage_all_pct: float

    def rows(self) -> List[str]:
        lines = []
        for kind in SignalKind:
            lines.append(
                f"{kind.label:<15} shutdowns {self.shutdown_pct[kind]:5.1f}%"
                f"   outages {self.outage_pct[kind]:5.1f}%")
        lines.append(
            f"{'All (3-way)':<15} shutdowns {self.shutdown_all_pct:5.1f}%"
            f"   outages {self.outage_all_pct:5.1f}%")
        return lines


def _percentages(events: Sequence[LabeledEvent]
                 ) -> tuple[Dict[SignalKind, float], float]:
    if not events:
        raise SignalError("no events to summarize")
    per_signal = {
        kind: 100.0 * sum(
            1 for e in events if e.record.human_visible[kind])
        / len(events)
        for kind in SignalKind
    }
    all_pct = 100.0 * sum(
        1 for e in events if e.record.visible_in_all_signals) / len(events)
    return per_signal, all_pct


def observability_table(merged: MergedDataset) -> ObservabilityTable:
    """Compute Figure 16 from the merged dataset."""
    shutdown_pct, shutdown_all = _percentages(merged.ioda_shutdowns())
    outage_pct, outage_all = _percentages(merged.ioda_outages())
    return ObservabilityTable(
        shutdown_pct=shutdown_pct,
        outage_pct=outage_pct,
        shutdown_all_pct=shutdown_all,
        outage_all_pct=outage_all,
    )
