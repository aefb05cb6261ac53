"""Auxiliary dataset emitters (§3.3).

Each module emits one of the paper's auxiliary datasets from world ground
truth, with the source's real quirks — country-name variants, annual
granularity, limited temporal coverage:

- :mod:`repro.datasets.vdem` — V-Dem-style political indices.
- :mod:`repro.datasets.worldbank` — World-Bank-style macroeconomics.
- :mod:`repro.datasets.coups` — Powell/Thyne-style coup list.
- :mod:`repro.datasets.elections` — IFES ElectionGuide-style election
  dates (2018-2021 only, as manually collected by the paper).
- :mod:`repro.datasets.protests` — Mass-Mobilization-style protest days
  (coverage ends in 2019, §5.2 footnote 9).
- :mod:`repro.datasets.datareportal` — DataReportal-style Internet user
  estimates.

:mod:`repro.datasets.sources` wraps all of the above (plus the
topology-derived state-ownership shares) behind the uniform
:class:`~repro.datasets.sources.DatasetSource` protocol — ``name`` and
``load(*, world)`` — so resilience wrapping (:mod:`repro.resilience`)
applies to every feed the same way.
"""

from repro.datasets.sources import (
    CoupSource,
    DataReportalSource,
    DatasetSource,
    ElectionSource,
    ProtestSource,
    StateSharesSource,
    VDemSource,
    WorldBankSource,
    default_sources,
)
from repro.datasets.vdem import VDemDataset, VDemRecord
from repro.datasets.worldbank import WorldBankDataset, WorldBankRecord
from repro.datasets.coups import CoupDataset, CoupRecord
from repro.datasets.elections import ElectionDataset, ElectionRecord
from repro.datasets.protests import ProtestDataset, ProtestRecord
from repro.datasets.datareportal import (
    DataReportalDataset,
    InternetUsersRecord,
)

__all__ = [
    "VDemDataset", "VDemRecord",
    "WorldBankDataset", "WorldBankRecord",
    "CoupDataset", "CoupRecord",
    "ElectionDataset", "ElectionRecord",
    "ProtestDataset", "ProtestRecord",
    "DataReportalDataset", "InternetUsersRecord",
    "DatasetSource", "default_sources",
    "VDemSource", "WorldBankSource", "CoupSource", "ElectionSource",
    "ProtestSource", "DataReportalSource", "StateSharesSource",
]
