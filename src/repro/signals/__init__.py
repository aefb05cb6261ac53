"""Time-series signal infrastructure shared by IODA's three signals.

- :mod:`repro.signals.series` — fixed-width binned time series.
- :mod:`repro.signals.entities` — the country/region/AS entity keys that
  IODA aggregates each signal over.
- :mod:`repro.signals.alerts` — the configuration, alert and episode types
  of the median-of-trailing-window drop detector that produces IODA's
  automated alerts (the detector runs in :mod:`repro.stream.detect`).
"""

from repro.signals.series import TimeSeries
from repro.signals.entities import Entity, EntityScope
from repro.signals.kinds import SignalKind
from repro.signals.alerts import (
    Alert,
    AlertEpisode,
    DetectorConfig,
)

__all__ = [
    "TimeSeries",
    "Entity",
    "EntityScope",
    "SignalKind",
    "Alert",
    "AlertEpisode",
    "DetectorConfig",
]
