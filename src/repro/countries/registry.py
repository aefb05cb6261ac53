"""The :class:`Country` record and :class:`CountryRegistry` lookup service.

The registry is the single authority for resolving country identity across
all dataset emitters and the merge pipeline.  It indexes countries by
ISO-3166 alpha-2 code, canonical name, and every known alias (after
normalization by :func:`repro.countries.names.normalize_name`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

from repro.countries.data import COUNTRY_ROWS
from repro.countries.iso3 import ISO2_TO_ISO3
from repro.countries.names import normalize_name
from repro.errors import CountryLookupError
from repro.timeutils.calendars import MON_FRI, SUN_THU, Workweek
from repro.timeutils.timezones import FixedOffset

__all__ = ["Archetype", "Country", "CountryRegistry", "default_registry"]


class Archetype(enum.Enum):
    """Coarse behavioural archetype used to seed synthetic world profiles.

    The archetype shapes the *distributions* from which a country's
    political, economic, and infrastructure parameters are drawn.  It mirrors
    the populations the paper documents rather than encoding outcomes
    directly: e.g. an ``EXAM`` country is parameterized to be autocratic with
    a state-dominated access market and a policy of exam-season shutdowns,
    but whether any given synthetic year contains shutdowns is decided by
    the stochastic world generator.
    """

    EXAM = "exam"                # recurring exam-season shutdowns (Iraq, Syria)
    COUP = "coup"                # coup-prone; blackouts during coups (Myanmar)
    PROTEST = "protest"          # shutdowns responding to protests (Iran)
    ELECTION = "election"        # election-time blackouts (Belarus, Gabon)
    AUTOCRACY = "autocracy"      # capable autocracy, fewer realized events
    FRAGILE = "fragile"          # fragile infrastructure; outage-heavy (Togo)
    SUBNATIONAL = "subnational"  # region-scoped mobile shutdowns (India)
    STABLE = "stable"            # neither class of event expected


#: Per-archetype default hints, each in [0, 1]:
#: (autocracy, income, state_isp_share, infrastructure_fragility).
_ARCHETYPE_HINTS: Mapping[Archetype, Tuple[float, float, float, float]] = {
    Archetype.EXAM: (0.85, 0.30, 0.88, 0.50),
    Archetype.COUP: (0.80, 0.20, 0.85, 0.60),
    Archetype.PROTEST: (0.70, 0.35, 0.60, 0.45),
    Archetype.ELECTION: (0.75, 0.25, 0.80, 0.55),
    Archetype.AUTOCRACY: (0.85, 0.45, 0.55, 0.35),
    Archetype.FRAGILE: (0.60, 0.15, 0.30, 0.85),
    Archetype.SUBNATIONAL: (0.55, 0.35, 0.25, 0.35),
    Archetype.STABLE: (0.15, 0.80, 0.10, 0.08),
}

_WORKWEEKS: Mapping[str, Workweek] = {"F": MON_FRI, "S": SUN_THU}


@dataclass(frozen=True)
class Country:
    """A country as known to the registry.

    Attributes mirror the columns of :data:`repro.countries.data.COUNTRY_ROWS`
    plus the archetype-derived hints consumed by the world generator.
    """

    iso2: str
    name: str
    region: str
    utc_offset: FixedOffset
    workweek: Workweek
    population_millions: float
    archetype: Archetype
    aliases: Tuple[str, ...] = ()
    autocracy_hint: float = 0.0
    income_hint: float = 0.0
    state_isp_hint: float = 0.0
    fragility_hint: float = 0.0

    @property
    def iso3(self) -> str:
        """ISO-3166 alpha-3 code (some sources publish only these)."""
        return ISO2_TO_ISO3[self.iso2]

    def all_names(self) -> Tuple[str, ...]:
        """Canonical name followed by every alias."""
        return (self.name, *self.aliases)

    def __str__(self) -> str:
        return f"{self.name} ({self.iso2})"


class CountryRegistry:
    """Indexed collection of :class:`Country` records.

    Lookup accepts ISO-3166 alpha-2 codes (case-insensitive) and any
    canonical name or alias (normalization-insensitive).  Iteration yields
    countries in the stable order of the source table.
    """

    def __init__(self, countries: Tuple[Country, ...]):
        self._countries = countries
        self._by_iso2: Dict[str, Country] = {}
        self._by_iso3: Dict[str, Country] = {}
        self._by_name: Dict[str, Country] = {}
        for country in countries:
            code = country.iso2.upper()
            if code in self._by_iso2:
                raise CountryLookupError(f"duplicate ISO code {code}")
            self._by_iso2[code] = country
            iso3 = ISO2_TO_ISO3.get(code)
            if iso3 is not None:
                if iso3 in self._by_iso3:
                    raise CountryLookupError(
                        f"duplicate ISO-3 code {iso3}")
                self._by_iso3[iso3] = country
            for name in country.all_names():
                key = normalize_name(name)
                existing = self._by_name.get(key)
                if existing is not None and existing is not country:
                    raise CountryLookupError(
                        f"name {name!r} maps to both {existing.iso2} "
                        f"and {country.iso2}")
                self._by_name[key] = country

    @classmethod
    def from_rows(cls, rows=COUNTRY_ROWS) -> "CountryRegistry":
        """Build a registry from static table rows."""
        countries = []
        for iso2, name, region, offset, ww, pop, archetype, aliases in rows:
            kind = Archetype(archetype)
            autocracy, income, state_isp, fragility = _ARCHETYPE_HINTS[kind]
            countries.append(Country(
                iso2=iso2,
                name=name,
                region=region,
                utc_offset=FixedOffset(offset),
                workweek=_WORKWEEKS[ww],
                population_millions=pop,
                archetype=kind,
                aliases=tuple(aliases),
                autocracy_hint=autocracy,
                income_hint=income,
                state_isp_hint=state_isp,
                fragility_hint=fragility,
            ))
        return cls(tuple(countries))

    def __len__(self) -> int:
        return len(self._countries)

    def __iter__(self) -> Iterator[Country]:
        return iter(self._countries)

    def __contains__(self, ref: str) -> bool:
        try:
            self.lookup(ref)
        except CountryLookupError:
            return False
        return True

    def get(self, iso2: str) -> Country:
        """Resolve an ISO-3166 alpha-2 code (case-insensitive)."""
        try:
            return self._by_iso2[iso2.upper()]
        except KeyError:
            raise CountryLookupError(
                f"unknown ISO-3166 alpha-2 code: {iso2!r}") from None

    def by_name(self, name: str) -> Country:
        """Resolve a country name or alias."""
        try:
            return self._by_name[normalize_name(name)]
        except KeyError:
            raise CountryLookupError(
                f"unresolvable country name: {name!r}") from None

    def by_iso3(self, iso3: str) -> Country:
        """Resolve an ISO-3166 alpha-3 code (case-insensitive)."""
        try:
            return self._by_iso3[iso3.upper()]
        except KeyError:
            raise CountryLookupError(
                f"unknown ISO-3166 alpha-3 code: {iso3!r}") from None

    def lookup(self, ref: str) -> Country:
        """Resolve an ISO alpha-2/alpha-3 code or a name/alias."""
        if len(ref) == 2:
            try:
                return self.get(ref)
            except CountryLookupError:
                pass
        if len(ref) == 3:
            try:
                return self.by_iso3(ref)
            except CountryLookupError:
                pass
        return self.by_name(ref)

    def codes(self) -> Tuple[str, ...]:
        """All ISO codes in table order."""
        return tuple(c.iso2 for c in self._countries)


_DEFAULT: CountryRegistry | None = None


def default_registry() -> CountryRegistry:
    """The process-wide registry built from the static table (cached)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = CountryRegistry.from_rows()
    return _DEFAULT
