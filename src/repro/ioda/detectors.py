"""Per-signal alert detector configurations (§3.1.1).

====================  ==========  ==================
Signal                Threshold   History window
====================  ==========  ==================
BGP                   99%         24 hours
Active Probing        80%         7 days
Telescope             25%         7 days
====================  ==========  ==================

The telescope threshold is far lower because the signal's variance is far
higher; the BGP threshold is razor thin because routing visibility is
nearly constant absent real events.
"""

from __future__ import annotations

from typing import Mapping

from repro.signals.alerts import DetectorConfig
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import DAY, HOUR

__all__ = ["DETECTOR_CONFIGS"]

DETECTOR_CONFIGS: Mapping[SignalKind, DetectorConfig] = {
    SignalKind.BGP: DetectorConfig(
        threshold=0.99, history_seconds=24 * HOUR,
        min_history_fraction=0.5),
    SignalKind.ACTIVE_PROBING: DetectorConfig(
        threshold=0.80, history_seconds=7 * DAY,
        min_history_fraction=0.3),
    SignalKind.TELESCOPE: DetectorConfig(
        threshold=0.25, history_seconds=7 * DAY,
        min_history_fraction=0.3),
}
