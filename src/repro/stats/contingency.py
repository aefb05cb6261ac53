"""Day-level contingency analysis.

Table 4 of the paper reports, over all (country, day) pairs in the study
period, the probability of a shutdown / spontaneous outage starting on days
with and without an election, coup, or protest in that country.  This module
implements the underlying contingency computation generically: a universe of
(country, day) cells, a condition marking some cells, and an outcome marking
some cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Hashable, Iterable, Set, Tuple

from repro.errors import SignalError

__all__ = ["ConditionalRates", "DayLevelContingency"]

Cell = Tuple[Hashable, int]  # (country code, local day index)


@dataclass(frozen=True)
class ConditionalRates:
    """Outcome rates conditioned on a boolean cell condition.

    ``rate_given_condition`` is ``P(outcome | condition)``;
    ``rate_given_not_condition`` is ``P(outcome | ¬condition)``.
    ``risk_ratio`` is their ratio (``inf`` when the baseline is zero but
    the conditioned rate is not).
    """

    condition_cells: int
    other_cells: int
    outcomes_on_condition: int
    outcomes_on_other: int

    @property
    def rate_given_condition(self) -> float:
        if self.condition_cells == 0:
            return 0.0
        return self.outcomes_on_condition / self.condition_cells

    @property
    def rate_given_not_condition(self) -> float:
        if self.other_cells == 0:
            return 0.0
        return self.outcomes_on_other / self.other_cells

    @property
    def risk_ratio(self) -> float:
        """How many times more likely the outcome is on condition days."""
        baseline = self.rate_given_not_condition
        conditioned = self.rate_given_condition
        if baseline == 0.0:
            return float("inf") if conditioned > 0.0 else 0.0
        return conditioned / baseline


class DayLevelContingency:
    """A universe of (country, day) cells with named conditions/outcomes.

    The universe is the cross product of the study countries and study days.
    Conditions (election / coup / protest days) and outcomes (shutdown /
    outage start days) are sparse cell sets.  Both conditions and outcomes
    may be restricted to sub-periods — the paper's protest data only covers
    2018-2019, so the protest rows of Table 4 are computed over that subset
    of days (§5.2 footnote 9).
    """

    def __init__(self, countries: Iterable[Hashable],
                 day_indices: Iterable[int]):
        self._countries = tuple(dict.fromkeys(countries))
        self._days = tuple(dict.fromkeys(day_indices))
        if not self._countries or not self._days:
            raise SignalError("contingency universe must be non-empty")
        self._day_set = frozenset(self._days)
        self._country_set = frozenset(self._countries)

    def _filter(self, cells: Iterable[Cell],
                day_subset: AbstractSet[int] | None) -> Set[Cell]:
        days = self._day_set if day_subset is None \
            else (self._day_set & frozenset(day_subset))
        return {(country, day) for country, day in cells
                if country in self._country_set and day in days}

    def rates(self, condition_cells: Iterable[Cell],
              outcome_cells: Iterable[Cell],
              day_subset: AbstractSet[int] | None = None) -> ConditionalRates:
        """Compute outcome rates conditioned on the condition cells.

        ``day_subset`` optionally restricts the universe (and both cell
        sets) to a subset of the study days.
        """
        condition = self._filter(condition_cells, day_subset)
        outcome = self._filter(outcome_cells, day_subset)
        if day_subset is None:
            n_days = len(self._days)
        else:
            n_days = len(self._day_set & frozenset(day_subset))
        universe = len(self._countries) * n_days
        on_condition = len(outcome & condition)
        return ConditionalRates(
            condition_cells=len(condition),
            other_cells=universe - len(condition),
            outcomes_on_condition=on_condition,
            outcomes_on_other=len(outcome) - on_condition,
        )
