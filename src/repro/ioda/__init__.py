"""The IODA platform: signals, alerts, dashboard, and curation.

This subpackage reproduces the measurement side of §3.1:

- :mod:`repro.ioda.platform` — generates the three per-entity signals
  (BGP / Active Probing / Telescope) over observation windows, projecting
  ground-truth disruptions through the substrate simulators, and applies
  measurement-infrastructure artifacts.
- :mod:`repro.ioda.detectors` — the per-signal automated alert
  configurations (99% / 80% / 25% of trailing medians).
- :mod:`repro.ioda.records` — the curated outage record schema (Table 1).
- :mod:`repro.ioda.dashboard` — the alert dashboard and IODA-URL helper.
- :mod:`repro.ioda.curation` — the curation pipeline (§3.1.2): two-signal
  corroboration, external-source corroboration, control-group artifact
  rejection, and start/end/scope determination from signals.
- :mod:`repro.ioda.dataworks` — the DataWorks second-pass review that
  re-derives visibility flags from the signals and fixes disagreements.
"""

from repro.ioda.platform import IODAPlatform
from repro.ioda.detectors import DETECTOR_CONFIGS
from repro.ioda.records import ConfirmationStatus, OutageRecord
from repro.ioda.dashboard import Dashboard, ioda_url
from repro.ioda.curation import CurationConfig, CurationPipeline
from repro.ioda.dataworks import DataWorksReviewer, ReviewOutcome

__all__ = [
    "DataWorksReviewer",
    "ReviewOutcome",
    "IODAPlatform",
    "DETECTOR_CONFIGS",
    "ConfirmationStatus",
    "OutageRecord",
    "Dashboard",
    "ioda_url",
    "CurationConfig",
    "CurationPipeline",
]
