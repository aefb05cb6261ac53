"""Robustness checks for the mobilization analysis (§5.2, footnote 11).

The paper reports that Table 4's results hold under several alternative
specifications: aggregating to the week level instead of the day level,
and considering within-country trends.  This module implements both:

- :func:`weekly_mobilization_table` — the same contingency computation
  over (country, ISO week) cells.
- :func:`within_country_rates` — restricting the universe to countries
  that experienced at least one shutdown, so the comparison is "event
  days vs non-event days *within* shutdown-prone countries" (a simple
  fixed-effects analog).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.analysis.mobilization import (
    MobilizationTable,
    _event_cells,
    _start_day_cells,
)
from repro.core.merge import MergedDataset
from repro.datasets.coups import CoupDataset
from repro.datasets.elections import ElectionDataset
from repro.datasets.protests import PROTEST_DATA_END, ProtestDataset
from repro.stats.contingency import ConditionalRates, DayLevelContingency
from repro.timeutils.timestamps import DAY

__all__ = ["weekly_mobilization_table", "within_country_rates"]

Cell = Tuple[str, int]

_DAYS_PER_WEEK = 7


def _to_weeks(cells: Set[Cell]) -> Set[Cell]:
    """Collapse (country, day) cells to (country, week) cells."""
    return {(iso2, day // _DAYS_PER_WEEK) for iso2, day in cells}


def weekly_mobilization_table(merged: MergedDataset,
                              coups: CoupDataset,
                              elections: ElectionDataset,
                              protests: ProtestDataset
                              ) -> MobilizationTable:
    """Table 4 aggregated to the week level (footnote 11)."""
    registry = merged.registry
    first_week = (merged.period.start // DAY) // _DAYS_PER_WEEK
    last_week = (-(-merged.period.end // DAY)) // _DAYS_PER_WEEK + 1
    weeks = range(first_week, last_week)
    contingency = DayLevelContingency(
        countries=[c.iso2 for c in registry], day_indices=weeks)

    shutdown_cells = _to_weeks(_start_day_cells(merged, shutdown=True))
    outage_cells = _to_weeks(_start_day_cells(merged, shutdown=False))
    protest_weeks = frozenset(
        range(first_week, min(last_week,
                              PROTEST_DATA_END // _DAYS_PER_WEEK)))

    conditions = {
        "election": (_to_weeks(_event_cells(registry, elections)), None),
        "coup": (_to_weeks(_event_cells(registry, coups)), None),
        "protest": (_to_weeks(_event_cells(registry, protests)),
                    protest_weeks),
    }
    rates: Dict[str, Tuple[ConditionalRates, ConditionalRates]] = {}
    for kind, (cells, subset) in conditions.items():
        rates[kind] = (
            contingency.rates(cells, shutdown_cells, subset),
            contingency.rates(cells, outage_cells, subset),
        )
    return MobilizationTable(rates=rates)


def within_country_rates(merged: MergedDataset,
                         coups: CoupDataset,
                         elections: ElectionDataset,
                         protests: ProtestDataset) -> MobilizationTable:
    """Table 4 restricted to countries with at least one shutdown.

    This removes the cross-country confound ("shutdown-prone countries
    simply have more of everything"): if mobilization still predicts
    shutdowns *within* those countries, the effect is not a country-level
    artifact.
    """
    registry = merged.registry
    shutdown_countries = set(merged.shutdown_countries())
    first_day = merged.period.start // DAY
    last_day = -(-merged.period.end // DAY)
    contingency = DayLevelContingency(
        countries=sorted(shutdown_countries),
        day_indices=range(first_day, last_day))

    def restrict(cells: Set[Cell]) -> Set[Cell]:
        return {cell for cell in cells if cell[0] in shutdown_countries}

    shutdown_cells = restrict(_start_day_cells(merged, shutdown=True))
    outage_cells = restrict(_start_day_cells(merged, shutdown=False))
    protest_days = frozenset(
        range(first_day, min(last_day, PROTEST_DATA_END)))
    conditions = {
        "election": (restrict(_event_cells(registry, elections)), None),
        "coup": (restrict(_event_cells(registry, coups)), None),
        "protest": (restrict(_event_cells(registry, protests)),
                    protest_days),
    }
    rates: Dict[str, Tuple[ConditionalRates, ConditionalRates]] = {}
    for kind, (cells, subset) in conditions.items():
        rates[kind] = (
            contingency.rates(cells, shutdown_cells, subset),
            contingency.rates(cells, outage_cells, subset),
        )
    return MobilizationTable(rates=rates)
