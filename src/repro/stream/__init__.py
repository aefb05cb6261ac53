"""repro.stream — incremental ingestion and detection.

The batch pipeline materializes every signal for the whole study period
before curating.  This package is the always-on counterpart: signal
bins are **pushed** as they elapse, in per-series array segments (a
single bin is a one-element segment), trailing-median detectors keep O(window) rolling state
(:mod:`repro.stream.detect`, the detector batch curation runs too, so
any chunking gives the batch alerts bit for bit), and curation emits
event lifecycle records (``open``/``update``/``close``) at a
configurable **watermark** instead of one terminal batch
(:mod:`repro.stream.engine`).

Layering (the client/models/processor/scheduler split):

- :mod:`repro.stream.models`  — the wire types: :class:`BinSegment`,
  :class:`BinBatch`, :class:`StreamEvent`.
- :mod:`repro.stream.detect`  — :class:`StreamingAlertDetector` and
  :class:`StreamingEpisodeGrouper`, the only alert detector: the batch
  dashboard feeds it whole series.
- :mod:`repro.stream.source`  — :class:`ScenarioBinSource`, the
  fault-injectable (``repro.resilience``) replay source that turns the
  synthetic platform into a bin feed.
- :mod:`repro.stream.engine`  — :class:`StreamEngine`, per-window
  buffering, watermark advancement, and lifecycle-event curation.
- :mod:`repro.stream.session` — :class:`StreamSession`, the public
  surface behind :func:`repro.api.stream`.

Exports resolve lazily so that :mod:`repro.ioda.dashboard` can import
the detection core without dragging in the session layer (which itself
imports :mod:`repro.ioda`).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "BinBatch",
    "BinSegment",
    "ScenarioBinSource",
    "StreamEngine",
    "StreamEvent",
    "StreamSession",
    "StreamingAlertDetector",
    "StreamingEpisodeGrouper",
    "stream_episodes",
]

_HOMES = {
    "BinSegment": "repro.stream.models",
    "BinBatch": "repro.stream.models",
    "StreamEvent": "repro.stream.models",
    "StreamingAlertDetector": "repro.stream.detect",
    "StreamingEpisodeGrouper": "repro.stream.detect",
    "stream_episodes": "repro.stream.detect",
    "ScenarioBinSource": "repro.stream.source",
    "StreamEngine": "repro.stream.engine",
    "StreamSession": "repro.stream.session",
}


def __getattr__(name: str) -> Any:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module 'repro.stream' has no attribute "
                             f"{name!r}")
    import importlib

    return getattr(importlib.import_module(home), name)
