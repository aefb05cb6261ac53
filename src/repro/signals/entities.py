"""Entities that IODA aggregates signals over.

IODA publishes each signal at three aggregation levels: country,
sub-national region, and autonomous system (§3.1).  An :class:`Entity` is
the (scope, identifier) pair keying those aggregate series, and the outage
record's *scope* field (Table 1) is the highest level at which an outage is
visible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["EntityScope", "Entity"]


class EntityScope(enum.Enum):
    """Aggregation level of a signal or visibility scope of an outage,
    widest first."""

    COUNTRY = "Country"
    REGION = "Region"
    AS = "AS"


@dataclass(frozen=True, slots=True)
class Entity:
    """A (scope, identifier) aggregation key.

    Identifiers are ISO codes for countries, ``CC-RegionName`` strings for
    regions, and decimal ASN strings for ASes.
    """

    scope: EntityScope
    identifier: str

    @classmethod
    def country(cls, iso2: str) -> "Entity":
        return cls(EntityScope.COUNTRY, iso2.upper())

    @classmethod
    def region(cls, iso2: str, region_name: str) -> "Entity":
        return cls(EntityScope.REGION, f"{iso2.upper()}-{region_name}")

    @classmethod
    def asn(cls, asn: int) -> "Entity":
        return cls(EntityScope.AS, str(asn))

    @property
    def country_iso2(self) -> str | None:
        """The ISO country code for country/region entities, else None."""
        if self.scope is EntityScope.COUNTRY:
            return self.identifier
        if self.scope is EntityScope.REGION:
            return self.identifier.split("-", 1)[0]
        return None

    def __str__(self) -> str:
        return f"{self.scope.value}:{self.identifier}"
