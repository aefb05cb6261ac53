"""Ground-truth disruption records.

A :class:`GroundTruthDisruption` is what *actually happened* in the
synthetic world: the authoritative span, scope, severity and cause of a
connectivity disruption.  The observation pipeline (IODA simulation, KIO
reporting) only ever sees noisy projections of these records; the analysis
validation tests compare pipeline output against them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.signals.entities import EntityScope
from repro.timeutils.timestamps import TimeRange

__all__ = ["Cause", "GroundTruthDisruption", "RestrictionEpisode"]


class Cause(enum.Enum):
    """Why a disruption happened.

    ``GOVERNMENT_ORDERED`` and ``EXAM`` are the two causes the paper's
    curation labels as shutdowns (§4 "Shutdown and Outage Dataset"); all
    others are spontaneous.  ``INFRASTRUCTURE_ARTIFACT`` is not a real
    disruption at all — it models IODA measurement-infrastructure issues
    that produce correlated signal dips across unrelated countries, which
    the curation pipeline must reject via its control-group check (§3.1.2).
    """

    GOVERNMENT_ORDERED = "government-ordered"
    EXAM = "exam-related"
    CABLE_CUT = "cable-cut"
    POWER_OUTAGE = "power-outage"
    NATURAL_DISASTER = "natural-disaster"
    MISCONFIGURATION = "misconfiguration"
    DDOS = "ddos"
    INFRASTRUCTURE_ARTIFACT = "infrastructure-artifact"

    @property
    def is_shutdown_cause(self) -> bool:
        """Whether the paper's labeling counts this cause as a shutdown."""
        return self in (Cause.GOVERNMENT_ORDERED, Cause.EXAM)


@dataclass(frozen=True)
class GroundTruthDisruption:
    """One disruption as it actually occurred.

    ``severity`` is the fraction of the affected entity's network that went
    down (1.0 = total blackout).  ``mobile_only`` marks disruptions limited
    to mobile networks, which IODA's active probing largely cannot see
    (§4).  ``series_id`` groups disruptions belonging to one overarching
    episode (e.g. nightly shutdowns after a coup, or an exam season) — the
    KIO compiler collapses a series into a single dataset entry, as Access
    Now does.  ``trigger_event_id`` links a shutdown to the mobilization
    event that motivated it, if any.
    """

    disruption_id: int
    country_iso2: str
    span: TimeRange
    scope: EntityScope
    cause: Cause
    severity: float = 1.0
    region_name: Optional[str] = None
    asn: Optional[int] = None
    mobile_only: bool = False
    series_id: Optional[str] = None
    trigger_event_id: Optional[int] = None
    restrictions: Tuple[str, ...] = ("full-network",)

    def __post_init__(self) -> None:
        if not 0.0 < self.severity <= 1.0:
            raise ConfigurationError(
                f"severity must be in (0, 1]: {self.severity}")
        if self.scope is EntityScope.REGION and self.region_name is None:
            raise ConfigurationError("region-scope disruption needs a region")
        if self.scope is EntityScope.AS and self.asn is None:
            raise ConfigurationError("AS-scope disruption needs an ASN")

    @property
    def intentional(self) -> bool:
        """Whether the disruption was ordered (a true shutdown)."""
        return self.cause.is_shutdown_cause

    @property
    def duration_hours(self) -> float:
        """Duration in hours."""
        return self.span.duration / 3600.0

    def __str__(self) -> str:
        where = self.country_iso2
        if self.region_name:
            where += f"/{self.region_name}"
        if self.asn is not None:
            where += f"/AS{self.asn}"
        return (f"Disruption#{self.disruption_id} {where} {self.cause.value} "
                f"{self.span} sev={self.severity:.2f}")


@dataclass(frozen=True)
class RestrictionEpisode:
    """An intentional restriction that is *not* a full-network shutdown.

    Throttling and service-based bans appear in the KIO dataset (and drive
    Figure 2's category counts) but do not disconnect users, so they are
    invisible to IODA's connectivity signals and are excluded from the
    paper's merged shutdown set.  ``restrictions`` is the non-empty list of
    techniques applied (categories are not mutually exclusive, §3.2).
    """

    episode_id: int
    country_iso2: str
    span: TimeRange
    restrictions: Tuple[str, ...]
    trigger_event_id: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.restrictions:
            raise ConfigurationError("restriction episode needs techniques")
        if "full-network" in self.restrictions:
            raise ConfigurationError(
                "full-network restrictions are GroundTruthDisruptions")
