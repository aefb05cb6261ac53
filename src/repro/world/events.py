"""Mobilization events: elections, coups, protest days.

These are the real-world events §5.2 correlates with shutdowns.  The
generator draws them per country-year:

- **Elections** follow multi-year cycles with jitter, so each country has
  an election roughly every 2-5 years.
- **Coups** are rare, concentrated in coup-prone archetypes; the paper's
  dataset has only seven in the study period, and the generator is
  calibrated to land in that regime.
- **Protest days** follow an overdispersed count distribution: most
  country-years have none or a few, autocracies under stress have bursts.

Events are ground truth; the dataset emitters (:mod:`repro.datasets`)
re-publish them with each source's quirks (e.g. the protest dataset ends in
2019).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.countries.registry import Archetype, Country, CountryRegistry
from repro.rng import substream
from repro.timeutils.timestamps import DAY, utc

__all__ = ["EventKind", "MobilizationEvent", "EventGenerator"]


class EventKind(enum.Enum):
    """The three mobilization event classes of Table 4."""

    ELECTION = "election"
    COUP = "coup"
    PROTEST = "protest"


@dataclass(frozen=True)
class MobilizationEvent:
    """One event: a kind, a country, and the UTC midnight of its (local)
    day.

    ``day_start_utc`` is the UTC timestamp of the *local* midnight starting
    the event day, so that co-occurrence with disruptions can be evaluated
    in the country's local calendar, as the paper does.
    """

    event_id: int
    kind: EventKind
    country_iso2: str
    day_start_utc: int


class EventGenerator:
    """Draws mobilization events for every country over a span of years."""

    #: Annual coup probability by archetype.
    _COUP_RATE = {
        Archetype.COUP: 0.22,
        Archetype.FRAGILE: 0.008,
        Archetype.ELECTION: 0.006,
    }
    _COUP_RATE_DEFAULT = 0.001

    #: Mean protest days per year by regime stress.
    _PROTEST_MEAN = {
        Archetype.PROTEST: 14.0,
        Archetype.ELECTION: 7.0,
        Archetype.COUP: 8.0,
        Archetype.EXAM: 6.0,
        Archetype.AUTOCRACY: 4.0,
        Archetype.FRAGILE: 5.0,
        Archetype.SUBNATIONAL: 9.0,
        Archetype.STABLE: 2.5,
    }

    def __init__(self, seed: int, registry: CountryRegistry):
        self._seed = seed
        self._registry = registry
        self._ids = itertools.count(1)

    def generate(self, years: Iterable[int]) -> List[MobilizationEvent]:
        """All events for all countries across ``years``, ordered by
        (country, time)."""
        year_list = sorted(set(years))
        events: List[MobilizationEvent] = []
        for country in self._registry:
            events.extend(self._country_events(country, year_list))
        return events

    # -- internals -----------------------------------------------------------

    def _country_events(self, country: Country,
                        years: list[int]) -> Iterable[MobilizationEvent]:
        rng = substream(self._seed, "events", country.iso2)
        cycle = int(rng.integers(2, 6))
        phase = int(rng.integers(0, cycle))
        for year in years:
            if (year + phase) % cycle == 0:
                yield self._event(EventKind.ELECTION, country, year, rng)
            coup_rate = self._COUP_RATE.get(
                country.archetype, self._COUP_RATE_DEFAULT)
            if rng.random() < coup_rate:
                yield self._event(EventKind.COUP, country, year, rng)
            mean = self._PROTEST_MEAN[country.archetype]
            n_protests = int(rng.negative_binomial(n=1.2, p=1.2 / (1.2 + mean)))
            for _ in range(n_protests):
                yield self._event(EventKind.PROTEST, country, year, rng)

    def _event(self, kind: EventKind, country: Country, year: int,
               rng: np.random.Generator) -> MobilizationEvent:
        day_of_year = int(rng.integers(0, 365))
        local_midnight = utc(year, 1, 1) + day_of_year * DAY
        # Shift so the timestamp is the UTC instant of the local midnight.
        day_start = local_midnight - country.utc_offset.seconds
        return MobilizationEvent(
            event_id=next(self._ids),
            kind=kind,
            country_iso2=country.iso2,
            day_start_utc=day_start,
        )

    @staticmethod
    def index_by_country(events: Iterable[MobilizationEvent]
                         ) -> Dict[Tuple[str, EventKind],
                                   List[MobilizationEvent]]:
        """Group events by (country, kind) for policy and analysis code."""
        index: Dict[Tuple[str, EventKind], List[MobilizationEvent]] = {}
        for event in events:
            index.setdefault(
                (event.country_iso2, event.kind), []).append(event)
        for bucket in index.values():
            bucket.sort(key=lambda e: e.day_start_utc)
        return index
