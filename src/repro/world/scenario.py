"""Scenario orchestration: assembling the whole synthetic world.

A :class:`WorldScenario` bundles everything the observation and analysis
pipelines consume: the country registry, the AS topologies, per-country-year
profiles, mobilization events, and the ground-truth disruption lists
(intentional shutdowns, soft restrictions, spontaneous outages, and
measurement-infrastructure artifacts).

Two canonical periods mirror the paper:

- :data:`KIO_PERIOD` (2016-01-01 .. 2022-01-01): the span of the Access Now
  annual snapshots (Fig 2).
- :data:`STUDY_PERIOD` (2018-01-01 .. 2021-08-01): the IODA/KIO overlap the
  merged analysis is restricted to (§3.1.2, §4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.countries.registry import Country, CountryRegistry, \
    default_registry
from repro.errors import ConfigurationError
from repro.rng import substream
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import HOUR, TimeRange, utc
from repro.topology.generator import TopologyGenerator, WorldTopology
from repro.world.disruptions import GroundTruthDisruption, RestrictionEpisode
from repro.world.events import EventGenerator, MobilizationEvent
from repro.world.outages import OutageRates, SpontaneousOutageGenerator
from repro.world.policy import ShutdownPolicyEngine
from repro.world.profiles import CountryYearProfile, ProfileGenerator

__all__ = [
    "KIO_PERIOD",
    "STUDY_PERIOD",
    "MeasurementArtifact",
    "ScenarioConfig",
    "WorldScenario",
    "ScenarioGenerator",
]

#: The span covered by KIO annual snapshots in the paper (2016-2021).
KIO_PERIOD = TimeRange(utc(2016, 1, 1), utc(2022, 1, 1))

#: The paper's merged study period (§4).
STUDY_PERIOD = TimeRange(utc(2018, 1, 1), utc(2021, 8, 1))


@dataclass(frozen=True)
class MeasurementArtifact:
    """A measurement-infrastructure issue, not a real outage.

    Artifacts depress one signal *globally* (a failing probing server, a
    faulty BGP collector, telescope packet loss).  The curation pipeline's
    control-group check exists precisely to reject these (§3.1.2).
    """

    span: TimeRange
    signal: SignalKind
    depth: float  # fractional drop applied to the signal, in (0, 1]

    def __post_init__(self) -> None:
        if not 0.0 < self.depth <= 1.0:
            raise ConfigurationError(
                f"artifact depth must be in (0, 1]: {self.depth}")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Knobs for scenario generation.

    Keyword-only: part of the stable :mod:`repro.api` constructor
    surface, so fields may be added or reordered freely.
    """

    seed: int = 2023
    years: Tuple[int, ...] = (2016, 2017, 2018, 2019, 2020, 2021)
    n_artifacts: int = 4
    address_scale: float = 1.0
    outage_rates: OutageRates = field(default_factory=OutageRates)


@dataclass
class WorldScenario:
    """The fully generated synthetic world."""

    config: ScenarioConfig
    registry: CountryRegistry
    topology: WorldTopology
    profiles: Dict[Tuple[str, int], CountryYearProfile]
    events: Tuple[MobilizationEvent, ...]
    shutdowns: Tuple[GroundTruthDisruption, ...]
    outages: Tuple[GroundTruthDisruption, ...]
    restrictions: Tuple[RestrictionEpisode, ...]
    artifacts: Tuple[MeasurementArtifact, ...]

    # -- convenience accessors ------------------------------------------------

    @property
    def seed(self) -> int:
        return self.config.seed

    def country(self, iso2: str) -> Country:
        return self.registry.get(iso2)

    def profile(self, iso2: str, year: int) -> Optional[CountryYearProfile]:
        return self.profiles.get((iso2.upper(), year))

    def all_disruptions(self) -> Iterator[GroundTruthDisruption]:
        """Shutdowns and outages interleaved in time order.

        The merged sort is memoized — the disruption tuples never change
        after generation, and the curation hot path asks thousands of
        times per run.
        """
        return iter(self._merged_disruptions())

    def _merged_disruptions(self) -> List[GroundTruthDisruption]:
        cached = self.__dict__.get("_disruptions_sorted")
        if cached is None:
            cached = sorted(
                itertools.chain(self.shutdowns, self.outages),
                key=lambda d: d.span.start)
            self._disruptions_sorted = cached
        return cached

    def country_disruptions(self, iso2: str
                            ) -> List[GroundTruthDisruption]:
        """One country's disruptions in time order (memoized index)."""
        index = self.__dict__.get("_disruptions_by_country")
        if index is None:
            index = {}
            for d in self._merged_disruptions():
                index.setdefault(d.country_iso2, []).append(d)
            self._disruptions_by_country = index
        return index.get(iso2.upper(), [])

    def disruptions_in(self, period: TimeRange,
                       country_iso2: str | None = None
                       ) -> List[GroundTruthDisruption]:
        """Disruptions whose *start* falls inside ``period``."""
        pool = (self._merged_disruptions() if country_iso2 is None
                else self.country_disruptions(country_iso2))
        return [d for d in pool if period.contains(d.span.start)]



class ScenarioGenerator:
    """Deterministically builds a :class:`WorldScenario` from a config."""

    def __init__(self, config: ScenarioConfig | None = None,
                 registry: CountryRegistry | None = None):
        self._config = config or ScenarioConfig()
        self._registry = registry or default_registry()

    def generate(self) -> WorldScenario:
        """Generate the full world."""
        config = self._config
        topology = TopologyGenerator(
            config.seed, self._registry,
            address_scale=config.address_scale).generate()
        profiles = ProfileGenerator(
            config.seed, self._registry).generate(config.years)
        events = tuple(EventGenerator(
            config.seed, self._registry).generate(config.years))
        policy = ShutdownPolicyEngine(
            config.seed, self._registry, topology, profiles)
        policy_output = policy.generate(config.years, events)
        generation_period = TimeRange(
            utc(min(config.years), 1, 1), utc(max(config.years) + 1, 1, 1))
        outages = SpontaneousOutageGenerator(
            config.seed, self._registry, topology,
            rates=config.outage_rates).generate(generation_period)
        artifacts = self._artifacts(config)
        return WorldScenario(
            config=config,
            registry=self._registry,
            topology=topology,
            profiles=profiles,
            events=events,
            shutdowns=policy_output.shutdowns,
            outages=tuple(outages),
            restrictions=policy_output.restrictions,
            artifacts=artifacts,
        )

    def _artifacts(self,
                   config: ScenarioConfig) -> Tuple[MeasurementArtifact, ...]:
        rng = substream(config.seed, "artifacts")
        artifacts = []
        signals = list(SignalKind)
        for i in range(config.n_artifacts):
            start = int(STUDY_PERIOD.start + rng.integers(
                0, STUDY_PERIOD.duration - 12 * HOUR))
            # Align to a bin boundary for tidy simulation.
            start -= start % 300
            duration = int(rng.integers(1, 7)) * HOUR
            artifacts.append(MeasurementArtifact(
                span=TimeRange(start, start + duration),
                signal=signals[int(rng.integers(0, len(signals)))],
                depth=float(rng.uniform(0.3, 0.9)),
            ))
        return tuple(sorted(artifacts, key=lambda a: a.span.start))
