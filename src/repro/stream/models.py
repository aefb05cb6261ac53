"""Wire types of the streaming surface.

These are the values that cross the :class:`~repro.stream.session.
StreamSession` boundary: :class:`BinSegment` going in (a contiguous run
of one series' bins, the feed's only unit — a single bin is a
one-element segment), :class:`StreamEvent` coming out (one step of an
outage-event lifecycle).  Everything here is a frozen, picklable
dataclass so the same payloads flow unchanged through the serial and
process backends and into the run journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import StreamError
from repro.ioda.records import OutageRecord
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import TimeRange, bin_floor

__all__ = ["BinSegment", "BinBatch", "StreamEvent",
           "EVENT_STATES", "EVENT_OUTCOMES", "bin_grid"]


def bin_grid(window: TimeRange, kind: SignalKind) -> Tuple[int, int]:
    """(first bin start, bin count) of a signal's grid over a window.

    This is the platform's own layout (`IODAPlatform._up_fraction`):
    bins are floored to the signal's width at the window start and cover
    the window end.  The engine and the source must agree on it exactly
    — it defines both which bins a window expects and when a watermark
    closes the window.
    """
    width = kind.bin_width
    start = bin_floor(window.start, width)
    n_bins = -(-(window.end - start) // width)
    return start, n_bins

#: Lifecycle states a :class:`StreamEvent` may carry.
EVENT_STATES = ("open", "update", "close")

#: Terminal outcomes a ``close`` event may carry.
EVENT_OUTCOMES = ("recorded", "dismissed", "merged")


@dataclass(frozen=True, eq=False)
class BinSegment:
    """A contiguous run of one country-level series' bins.

    The bins start at ``first_time`` and follow each other on the
    signal's grid (``kind.bin_width`` apart); ``values[i]`` is the
    level of the bin at ``first_time + i * width``.  ``window_start``
    tags the investigation window the run belongs to — platform signals
    are keyed by window start (the synthetic platform derives each
    window's random substream from it), so the engine must route the
    run to the right per-window detector.  ``values`` is a read-only float64 array: a
    read-only array is kept as given (the source hands out views of its
    series), anything else is copied first, so a segment never changes
    under its reader.  Equality compares the arrays element-wise, so a
    segment is not hashable.
    """

    country_iso2: str
    kind: SignalKind
    window_start: int
    first_time: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values
        if not (isinstance(values, np.ndarray)
                and values.dtype == np.float64
                and not values.flags.writeable):
            values = np.array(values, dtype=np.float64)
            values.flags.writeable = False
        if values.ndim != 1:
            raise StreamError(
                f"segment values must be one-dimensional, got shape "
                f"{values.shape}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def last_time(self) -> int:
        """Start of the segment's last bin."""
        return self.first_time + (len(self) - 1) * self.kind.bin_width

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinSegment):
            return NotImplemented
        return (self.country_iso2 == other.country_iso2
                and self.kind == other.kind
                and self.window_start == other.window_start
                and self.first_time == other.first_time
                and np.array_equal(self.values, other.values))

    def __reduce__(self):
        # Rebuild through __init__ so an unpickled segment's values are
        # read-only again.
        return (BinSegment, (self.country_iso2, self.kind,
                             self.window_start, self.first_time,
                             self.values))


@dataclass(frozen=True)
class BinBatch:
    """A batch of bin segments plus the watermark they justify.

    Produced by :class:`repro.stream.source.ScenarioBinSource` when
    replaying a scenario step by step; ``watermark`` is the timestamp up
    to which the source promises all its bins have been delivered, so a
    driver can push the batch and advance in one move.
    """

    segments: Tuple[BinSegment, ...]
    watermark: int

    def __post_init__(self) -> None:
        for seg in self.segments:
            if len(seg) and seg.last_time >= self.watermark:
                raise StreamError(
                    f"bin at {seg.last_time} not covered by its own batch "
                    f"watermark {self.watermark}")


@dataclass(frozen=True)
class StreamEvent:
    """One step of an outage-event lifecycle.

    ``seq`` is a session-global, gap-free sequence number (the journal
    and replay order).  ``key`` identifies the event across its
    lifecycle: the (country, first-seen candidate span start) pair,
    rendered ``"CC:timestamp"``.  ``state`` is ``open`` when a visible
    alert-episode cluster first crosses the watermark, ``update`` when
    its provisional span or signal set changes on a later advance, and
    ``close`` when the window is adjudicated (or the cluster merged
    into a neighbour).  A ``close`` carries an ``outcome`` —
    ``recorded`` (with the curated :class:`~repro.ioda.records.
    OutageRecord`), ``dismissed``, or ``merged`` — and only a ``close``
    does.

    ``capsule_id`` references the provenance lineage capsule behind the
    event when the session runs with provenance enabled (the
    adjudication capsule on a decided ``close``, a lifecycle capsule on
    provisional states), and is ``None`` otherwise.  It is journal-only
    metadata: the record payload is identical either way.
    """

    seq: int
    state: str
    key: str
    country_iso2: str
    window_start: int
    span: TimeRange
    signals: Tuple[SignalKind, ...]
    watermark: int
    outcome: Optional[str] = None
    record: Optional[OutageRecord] = None
    capsule_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.state not in EVENT_STATES:
            raise StreamError(f"unknown event state: {self.state!r}")
        if self.state == "close":
            if self.outcome not in EVENT_OUTCOMES:
                raise StreamError(
                    f"close event needs an outcome from {EVENT_OUTCOMES}: "
                    f"{self.outcome!r}")
        elif self.outcome is not None:
            raise StreamError(
                f"{self.state!r} event must not carry an outcome")
        if self.record is not None and self.outcome != "recorded":
            raise StreamError(
                "only a 'recorded' close may carry an outage record")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering (for the journal and the CLI)."""
        from repro.io import record_to_dict

        out: Dict[str, Any] = {
            "seq": self.seq,
            "state": self.state,
            "key": self.key,
            "country_iso2": self.country_iso2,
            "window_start": self.window_start,
            "span": {"start": self.span.start, "end": self.span.end},
            "signals": [k.value for k in self.signals],
            "watermark": self.watermark,
        }
        if self.outcome is not None:
            out["outcome"] = self.outcome
        if self.record is not None:
            out["record"] = record_to_dict(self.record)
        if self.capsule_id is not None:
            out["capsule_id"] = self.capsule_id
        return out
