"""The IODA outage dashboard: alert listing and URL helpers.

The paper's curators start from the dashboard's recent-alert list (§3.1.2);
:class:`Dashboard` reproduces that view over a platform and a set of
observation windows, listing alert episodes per entity and signal.

Each listing pulls whole series through the incremental detection core
(:func:`repro.stream.detect.stream_episodes`): the batch view is the
streaming engine fed one maximal chunk, so dashboards, batch curation,
and live streams all share one detector implementation, bit for bit.

A listing can be pulled one signal kind at a time
(:meth:`Dashboard.episodes`), so a caller may stop before the last kind.
Curation's region descent does: a region is recorded only when two
signals drop together, so once neither BGP nor active probing shows a
qualifying episode the telescope series cannot change any decision, and
it is neither synthesized nor detected.
:class:`~repro.signals.kinds.SignalKind` order puts the telescope last
because it is the kind worth sparing: it qualifies in about 85% of
region views (BGP and probing in under 30%), and its series carries the
most bins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.ioda.detectors import DETECTOR_CONFIGS
from repro.ioda.platform import IODAPlatform
from repro.signals.alerts import AlertEpisode
from repro.signals.entities import Entity, EntityScope
from repro.signals.kinds import SignalKind
from repro.stream.detect import stream_episodes
from repro.timeutils.timestamps import TimeRange

__all__ = ["Dashboard", "DashboardEntry", "ioda_url"]

_BASE_URL = "https://ioda.example.org/dashboard"


def ioda_url(entity: Entity, span: TimeRange) -> str:
    """The dashboard URL a curator would record for an outage."""
    scope_path = {
        EntityScope.COUNTRY: "country",
        EntityScope.REGION: "region",
        EntityScope.AS: "asn",
    }[entity.scope]
    return (f"{_BASE_URL}/{scope_path}/{entity.identifier}"
            f"?from={span.start}&until={span.end}")


@dataclass(frozen=True)
class DashboardEntry:
    """One row of the recent-alerts view."""

    entity: Entity
    signal: SignalKind
    episode: AlertEpisode

    @property
    def url(self) -> str:
        return ioda_url(self.entity, self.episode.span)


class Dashboard:
    """Alert listing over a platform."""

    def __init__(self, platform: IODAPlatform):
        self._platform = platform

    def entries(self, entity: Entity,
                window: TimeRange) -> List[DashboardEntry]:
        """All alert episodes for one entity within a window."""
        listed = [DashboardEntry(entity=entity, signal=kind, episode=episode)
                  for kind in SignalKind
                  for episode in self.episodes(entity, kind, window)]
        listed.sort(key=lambda e: e.episode.span.start)
        return listed

    def episodes(self, entity: Entity, kind: SignalKind,
                 window: TimeRange) -> List[AlertEpisode]:
        """One signal's alert episodes for one entity within a window."""
        series = self._platform.signal(entity, kind, window)
        return stream_episodes(series, DETECTOR_CONFIGS[kind])

    def episodes_by_signal(
            self, entity: Entity, window: TimeRange
    ) -> Dict[SignalKind, List[AlertEpisode]]:
        """Alert episodes grouped per signal (curation's working view)."""
        return {kind: self.episodes(entity, kind, window)
                for kind in SignalKind}
