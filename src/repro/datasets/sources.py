"""The unified :class:`DatasetSource` protocol and the seven sources.

Each auxiliary dataset is emitted by its own classmethod
(``VDemDataset.from_profiles(seed, registry, profiles)``,
``CoupDataset.from_events(seed, registry, events)``, ...).  A
:class:`DatasetSource` puts one surface over all seven, so the
pipeline's resilience wrapping and observability handle every feed the
same way:

- ``name`` — the stable source identifier (``"vdem"``, ``"coups"``, …);
  also the operation key fault plans and circuit breakers target, and
  the :class:`~repro.core.pipeline.PipelineResult` field it fills.
- ``load(*, world)`` — produce the source's records from the world
  scenario.  Every draw a source makes comes from its emitter's own
  substreams of the world seed, so a load is a pure function of the
  world and a retried load returns the same records.

The seven adapters cover every auxiliary product of the pipeline's
dataset stage: V-Dem, World Bank, coups, elections, protests,
DataReportal, and the topology-derived state-ownership shares.  The
pipeline loads them uniformly (see
:meth:`repro.core.pipeline.ReproPipeline._assemble`), wrapping each load
in the run's retry/breaker machinery when resilience is configured.
Sources are frozen dataclasses whose fields are the emitters'
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Protocol, Tuple, runtime_checkable

from repro.datasets.coups import CoupDataset
from repro.datasets.datareportal import DataReportalDataset
from repro.datasets.elections import ElectionDataset
from repro.datasets.protests import ProtestDataset
from repro.datasets.vdem import VDemDataset
from repro.datasets.worldbank import WorldBankDataset
from repro.topology.eyeballs import EyeballEstimates
from repro.topology.geolocation import GeoDatabase
from repro.topology.metrics import compute_state_shares
from repro.topology.prefix2as import Prefix2ASSnapshot
from repro.topology.state_owned import StateOwnedASList
from repro.world.scenario import WorldScenario

__all__ = [
    "DatasetSource",
    "VDemSource",
    "WorldBankSource",
    "CoupSource",
    "ElectionSource",
    "ProtestSource",
    "DataReportalSource",
    "StateSharesSource",
    "default_sources",
]


@runtime_checkable
class DatasetSource(Protocol):
    """One feed of the pipeline's dataset stage, behind a uniform API."""

    name: str

    def load(self, *, world: WorldScenario) -> Any:
        """Produce the source's records from world ground truth."""
        ...


@dataclass(frozen=True)
class VDemSource:
    """V-Dem-style political indices (:mod:`repro.datasets.vdem`)."""

    name: ClassVar[str] = "vdem"
    noise_sigma: float = 0.01

    def load(self, *, world: WorldScenario) -> VDemDataset:
        return VDemDataset.from_profiles(
            world.seed, world.registry, world.profiles,
            noise_sigma=self.noise_sigma)


@dataclass(frozen=True)
class WorldBankSource:
    """World-Bank-style macro indicators
    (:mod:`repro.datasets.worldbank`)."""

    name: ClassVar[str] = "worldbank"
    missing_rate: float = 0.02

    def load(self, *, world: WorldScenario) -> WorldBankDataset:
        return WorldBankDataset.from_profiles(
            world.seed, world.registry, world.profiles,
            missing_rate=self.missing_rate)


@dataclass(frozen=True)
class CoupSource:
    """Powell/Thyne-style coup list (:mod:`repro.datasets.coups`)."""

    name: ClassVar[str] = "coups"

    def load(self, *, world: WorldScenario) -> CoupDataset:
        return CoupDataset.from_events(
            world.seed, world.registry, world.events)


@dataclass(frozen=True)
class ElectionSource:
    """ElectionGuide-style election dates
    (:mod:`repro.datasets.elections`)."""

    name: ClassVar[str] = "elections"

    def load(self, *, world: WorldScenario) -> ElectionDataset:
        return ElectionDataset.from_events(
            world.seed, world.registry, world.events)


@dataclass(frozen=True)
class ProtestSource:
    """Mass-Mobilization-style protest days
    (:mod:`repro.datasets.protests`)."""

    name: ClassVar[str] = "protests"
    coverage: float = 0.9

    def load(self, *, world: WorldScenario) -> ProtestDataset:
        return ProtestDataset.from_events(
            world.seed, world.registry, world.events,
            coverage=self.coverage)


@dataclass(frozen=True)
class DataReportalSource:
    """DataReportal-style Internet user estimates
    (:mod:`repro.datasets.datareportal`)."""

    name: ClassVar[str] = "datareportal"

    def load(self, *, world: WorldScenario) -> DataReportalDataset:
        return DataReportalDataset.from_profiles(
            world.seed, world.registry, world.profiles)


@dataclass(frozen=True)
class StateSharesSource:
    """State-ownership address/eyeball shares derived from the
    CAIDA/MaxMind/APNIC-style topology emitters
    (:mod:`repro.topology.metrics`)."""

    name: ClassVar[str] = "state_shares"

    def load(self, *, world: WorldScenario) -> dict:
        seed = world.seed
        prefix2as = Prefix2ASSnapshot.from_topology(world.topology, seed)
        geo = GeoDatabase.from_topology(world.topology, seed)
        eyeballs = EyeballEstimates.from_topology(world.topology, seed)
        state_owned = StateOwnedASList.from_topology(world.topology, seed)
        return compute_state_shares(prefix2as, geo, state_owned, eyeballs)


def default_sources() -> Tuple[DatasetSource, ...]:
    """The seven sources of the dataset stage, in load order."""
    return (
        VDemSource(),
        WorldBankSource(),
        CoupSource(),
        ElectionSource(),
        ProtestSource(),
        DataReportalSource(),
        StateSharesSource(),
    )
