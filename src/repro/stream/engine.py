"""The watermark-driven streaming engine.

:class:`StreamEngine` is the processor behind
:class:`~repro.stream.session.StreamSession`: bins are **offered** in
any order (:meth:`push`) as :class:`~repro.stream.models.BinSegment`
runs — a single bin is a one-element segment — checked and written
with array operations, buffered on each investigation window's bin
grid, and **consumed** in time order when the watermark
advances (:meth:`advance`) — contiguous elapsed prefixes feed the
incremental detectors (:mod:`repro.stream.detect`), and a window whose
last bin the watermark passes is adjudicated through the exact batch
curation loop
(:meth:`repro.ioda.curation.CurationPipeline.adjudicate_window`).
Because batch curation runs the same detectors over each whole series
(their alerts do not depend on the chunking) and adjudication consumes
the per-country RNG substream and record ids in batch order, the
finalized record set is byte-identical to a batch run
(:meth:`repro.ioda.curation.CurationPipeline.investigate_country` over
the same windows) — however the bins were chunked, and on every
backend.

Between adjudications the engine maintains a provisional **event
lifecycle**: after each advance it re-clusters the episodes seen so far
(plus each detector's still-open alert run), and emits
:class:`~repro.stream.models.StreamEvent`\\ s — ``open`` when a
human-visible candidate first appears, ``update`` when its span or
signal set grows, ``close`` when the window is adjudicated (outcome
``recorded``/``dismissed``) or the candidate merges into a neighbour
(``merged``).  The provisional pass is pure (no RNG, no record ids), so
watching a stream never perturbs its final records.

Contract violations raise :class:`~repro.errors.StreamError`:
misaligned bins, non-finite values, conflicting duplicate values, a
regressing watermark, bins still missing when the watermark passes
them, or pushes into an adjudicated window.  Exact duplicates are
idempotent no-ops.

Each advance hands its due countries to the batch executor's
dispatcher, :class:`repro.exec.workers.WorkerPool`, one unit per
country (:func:`_adjudicate_windows`): inline below two busy workers,
otherwise on the pool's worker-resident world, which the engine keeps
for its whole life.  Curation consumes a country's RNG substream
strictly in candidate order, so each unit takes the country's RNG
bit-state, next record id and RNG-draw cursor (the provenance
coordinate) in and hands the advanced three back, the same way on
both paths — the draws land exactly where a serial run lands them,
which keeps every backend byte-identical.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, \
    Tuple

import numpy as np

from repro.errors import StreamError
from repro.exec.workers import ExecutorConfig, WorkerPool
from repro.ioda.curation import CurationConfig, CurationPipeline, \
    WindowAdjudication, finalize_records
from repro.ioda.detectors import DETECTOR_CONFIGS
from repro.ioda.platform import IODAPlatform
from repro.ioda.records import OutageRecord
from repro.obs.provenance import DrawCursor
from repro.obs.runtime import current
from repro.rng import substream
from repro.signals.alerts import AlertEpisode
from repro.signals.kinds import SignalKind
from repro.stream.detect import StreamingAlertDetector, \
    StreamingEpisodeGrouper
from repro.stream.models import BinSegment, StreamEvent, bin_grid
from repro.timeutils.timestamps import TimeRange

__all__ = ["StreamEngine"]

#: One country's due work: (window, its accumulated per-signal episodes).
WindowWork = Tuple[TimeRange, Dict[SignalKind, List[AlertEpisode]]]


class _SeriesState:
    """Buffer + incremental detector for one (window, signal) grid."""

    __slots__ = ("kind", "start", "width", "n_bins", "values", "present",
                 "fed", "detector", "grouper", "episodes")

    def __init__(self, window: TimeRange, kind: SignalKind):
        start, n_bins = bin_grid(window, kind)
        self.kind = kind
        self.start = start
        self.width = kind.bin_width
        self.n_bins = n_bins
        self.values = np.empty(n_bins, dtype=np.float64)
        self.present = np.zeros(n_bins, dtype=bool)
        self.fed = 0
        self.detector = StreamingAlertDetector(
            DETECTOR_CONFIGS[kind], self.width)
        self.grouper = StreamingEpisodeGrouper(self.width)
        self.episodes: List[AlertEpisode] = []

    @property
    def end(self) -> int:
        return self.start + self.n_bins * self.width


@dataclass
class _Open:
    """A provisional (not yet adjudicated) lifecycle event."""

    key: int
    span: TimeRange
    signals: Tuple[SignalKind, ...]


class _WindowState:
    """One investigation window's buffers and open lifecycle events."""

    __slots__ = ("window", "series", "open_ts", "close_ts", "opens",
                 "adjudicated", "touched")

    def __init__(self, window: TimeRange):
        self.window = window
        self.series: Optional[Dict[SignalKind, _SeriesState]] = {
            kind: _SeriesState(window, kind) for kind in SignalKind}
        # The watermark that elapses the window's first bin / last bin.
        self.open_ts = min(s.start + s.width for s in self.series.values())
        self.close_ts = max(s.end for s in self.series.values())
        self.opens: Dict[int, _Open] = {}
        self.adjudicated = False
        self.touched = False


class _CountryState:
    """One country's windows, adjudication cursor, and curated records."""

    __slots__ = ("iso2", "windows", "by_start", "rng_state",
                 "next_record_id", "draw_index", "records")

    def __init__(self, iso2: str, windows: Sequence[TimeRange], seed: int):
        self.iso2 = iso2
        self.windows = [_WindowState(w) for w in windows]
        self.by_start = {w.window.start: w for w in self.windows}
        # Where adjudication resumes: the curation substream's
        # bit-state, the next country-local record id, and the RNG-draw
        # cursor for provenance capsules.  They persist across advances,
        # so draws, ids and capsule coordinates are chunking-independent
        # and match a batch run.
        self.rng_state = substream(seed, "curation",
                                   iso2).bit_generator.state
        self.next_record_id = 1
        self.draw_index = 0
        self.records: List[OutageRecord] = []


def _adjudicate_windows(platform: IODAPlatform, backend: str,
                        config: CurationConfig, period: TimeRange,
                        iso2: str, work: Sequence[WindowWork],
                        rng_state: dict, next_record_id: int,
                        draw_index: int
                        ) -> Tuple[List[WindowAdjudication], dict, int, int]:
    """One country's closed windows as a :class:`WorkerPool` unit.

    Adjudicates in window order inside a ``stream.adjudicate`` span,
    resuming from the country's RNG bit-state, next record id and draw
    cursor, and returns the adjudications with the advanced three.
    """
    pipeline = CurationPipeline(platform, config)
    bit_generator = np.random.PCG64()
    bit_generator.state = rng_state
    rng = np.random.Generator(bit_generator)
    record_ids = itertools.count(next_record_id)
    draws = DrawCursor(draw_index)
    with current().span("stream.adjudicate", country=iso2,
                        windows=len(work), backend=backend):
        adjudications = [
            pipeline.adjudicate_window(iso2, window, period, episodes, rng,
                                       record_ids, draws)
            for window, episodes in work]
    return (adjudications, bit_generator.state, next(record_ids),
            draws.index)


class StreamEngine:
    """Incremental curation over pushed bins and an advancing watermark."""

    def __init__(self, pipeline: CurationPipeline,
                 windows: Mapping[str, Sequence[TimeRange]],
                 period: TimeRange, *, executor: ExecutorConfig):
        self._pipeline = pipeline
        self._period = period
        self._order = sorted(windows)
        self._countries = {
            iso2: _CountryState(iso2, windows[iso2],
                                pipeline.platform.scenario.seed)
            for iso2 in self._order}
        # Units here last well under a heartbeat interval; the parent's
        # sampler already reports the stream's progress.
        self._pool = WorkerPool(executor, pipeline.platform,
                                len(self._order), heartbeats=False)
        # Every window keyed by its (country, window) rank: the order
        # each advance visits, adjudicates and emits in.
        ranked = [((c, w), iso2, ws)
                  for c, iso2 in enumerate(self._order)
                  for w, ws in enumerate(self._countries[iso2].windows)]
        self._horizon = max((ws.close_ts for _, _, ws in ranked),
                            default=None)
        # Windows wait in ``_unstarted`` (by first-bin time) until the
        # watermark elapses their first bin; ``_live`` holds the
        # started, not yet adjudicated ones in rank order, so an advance
        # visits only the windows it can change.
        self._unstarted = sorted(ranked, key=lambda e: (e[2].open_ts, e[0]))
        self._n_started = 0
        self._live: List[Tuple[Tuple[int, int], str, _WindowState]] = []
        self._n_active = len(ranked)
        self._watermark: Optional[int] = None
        self._max_bin_end: Optional[int] = None
        self._bins_pushed = 0
        self._seq = itertools.count(1)

    # -- introspection (the session's telemetry reads these) ------------------

    @property
    def watermark(self) -> Optional[int]:
        """The last advanced watermark (None before the first advance)."""
        return self._watermark

    @property
    def bins_pushed(self) -> int:
        """Distinct bins accepted so far (duplicates not counted)."""
        return self._bins_pushed

    @property
    def watermark_lag(self) -> Optional[int]:
        """Seconds between the newest pushed bin's end and the watermark."""
        if self._max_bin_end is None:
            return None
        return self._max_bin_end - (self._watermark
                                    if self._watermark is not None
                                    else self._max_bin_end)

    @property
    def open_event_count(self) -> int:
        return sum(len(ws.opens) for _, _, ws in self._live)

    @property
    def active_window_count(self) -> int:
        """Windows not yet adjudicated."""
        return self._n_active

    @property
    def horizon(self) -> int:
        """Watermark at which every window closes."""
        if self._horizon is None:
            raise StreamError("engine has no windows")
        return self._horizon

    # -- ingestion -------------------------------------------------------------

    def push(self, segments: Iterable[BinSegment]) -> int:
        """Offer bin segments, in any order; return how many bins were new.

        Each :class:`~repro.stream.models.BinSegment` is one series'
        contiguous run of bins; a single bin is a one-element segment.
        Exact duplicates of already-offered bins are idempotent no-ops
        (replayed feeds are expected); a duplicate with a *different*
        value, a non-finite value, a bin off its grid, an unknown
        (country, window), or a push into an adjudicated window raises
        :class:`~repro.errors.StreamError`.  A segment is checked whole
        before any of it is written.
        """
        accepted = 0
        for seg in segments:
            accepted += self._ingest(seg)
        self._bins_pushed += accepted
        return accepted

    def _ingest(self, seg: BinSegment) -> int:
        """Check one segment against its grid and buffer its new bins."""
        iso2, kind = seg.country_iso2, seg.kind
        cs = self._countries.get(iso2)
        if cs is None:
            raise StreamError(
                f"no investigation windows for country {iso2!r}")
        ws = cs.by_start.get(seg.window_start)
        if ws is None:
            raise StreamError(
                f"{iso2} has no investigation window starting at "
                f"{seg.window_start}")
        if ws.series is None:
            raise StreamError(
                f"window {ws.window} of {iso2} is already adjudicated; "
                f"cannot push bin at {seg.first_time}")
        n = len(seg)
        if not n:
            return 0
        ss = ws.series[kind]
        lo, rem = divmod(seg.first_time - ss.start, ss.width)
        hi = lo + n
        if rem or lo < 0 or hi > ss.n_bins:
            off = seg.first_time if rem or lo < 0 else ss.end
            raise StreamError(
                f"bin at {off} is off the {ss.width}s grid "
                f"[{ss.start}, {ss.end}) of {iso2}/{kind.value}")
        values = seg.values
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise StreamError(
                f"non-finite value {float(values[i])!r} for {iso2}/"
                f"{kind.value} at {seg.first_time + i * ss.width}")
        held = ss.values[lo:hi]
        present = ss.present[lo:hi]
        if present.any():
            clash = present & (held != values)
            if clash.any():
                i = int(np.argmax(clash))
                raise StreamError(
                    f"conflicting duplicate for {iso2}/{kind.value} at "
                    f"{seg.first_time + i * ss.width}: had "
                    f"{float(held[i])!r}, got {float(values[i])!r}")
            fresh = ~present
            accepted = int(np.count_nonzero(fresh))
            if not accepted:
                return 0
            np.copyto(held, values, where=fresh)
            last = hi - 1 - int(np.argmax(fresh[::-1]))
        else:
            held[:] = values
            accepted, last = n, hi - 1
        present[:] = True
        end = ss.start + (last + 1) * ss.width
        if self._max_bin_end is None or end > self._max_bin_end:
            self._max_bin_end = end
        return accepted

    # -- the watermark ---------------------------------------------------------

    def advance(self, watermark: int) -> List[StreamEvent]:
        """Advance the watermark; consume elapsed bins; emit lifecycle.

        Feeds every started, unadjudicated window's contiguous elapsed
        prefix to its detectors, adjudicates windows whose last bin
        elapsed (one unit of pool work per country), and
        returns the lifecycle events of this advance in deterministic
        (country, window) order.  A regressing watermark raises;
        re-advancing to the current watermark is a no-op.
        """
        if self._watermark is not None:
            if watermark < self._watermark:
                raise StreamError(
                    f"watermark must not regress: {watermark} < "
                    f"{self._watermark}")
            if watermark == self._watermark:
                return []
        self._watermark = watermark
        while (self._n_started < len(self._unstarted)
               and self._unstarted[self._n_started][2].open_ts
               <= watermark):
            bisect.insort(self._live, self._unstarted[self._n_started])
            self._n_started += 1
        due: Dict[str, List[_WindowState]] = {}
        for _, iso2, ws in self._live:
            self._feed_window(iso2, ws, watermark)
            if watermark >= ws.close_ts:
                self._complete_window(iso2, ws)
                due.setdefault(iso2, []).append(ws)
        events: List[StreamEvent] = []
        due_windows = {id(ws) for states in due.values() for ws in states}
        for _, iso2, ws in self._live:
            if id(ws) in due_windows or not ws.touched:
                continue
            events.extend(self._refresh_lifecycle(self._countries[iso2],
                                                  ws))
            ws.touched = False
        adjudications = self._adjudicate(due)
        for iso2 in sorted(due):
            cs = self._countries[iso2]
            for ws, adj in zip(due[iso2], adjudications[iso2]):
                events.extend(self._close_window(cs, ws, adj))
                cs.records.extend(adj.records)
                ws.adjudicated = True
                ws.series = None  # buffers and detector state released
        if due_windows:
            self._live = [entry for entry in self._live
                          if not entry[2].adjudicated]
            self._n_active -= len(due_windows)
        return events

    def _feed_window(self, iso2: str, ws: _WindowState,
                     watermark: int) -> None:
        assert ws.series is not None
        for kind in SignalKind:
            ss = ws.series[kind]
            ready = min(ss.n_bins, (watermark - ss.start) // ss.width)
            if ready <= ss.fed:
                continue
            pending = ss.present[ss.fed:ready]
            if not pending.all():
                missing = ss.start + ss.width * (
                    ss.fed + int(np.flatnonzero(~pending)[0]))
                raise StreamError(
                    f"watermark {watermark} passed bin at {missing} of "
                    f"{iso2}/{kind.value} before it was pushed")
            starts = ss.start + ss.width * np.arange(
                ss.fed, ready, dtype=np.int64)
            alerts = ss.detector.feed(starts, ss.values[ss.fed:ready])
            ss.episodes.extend(ss.grouper.feed(alerts))
            ss.fed = ready
            if alerts:
                ws.touched = True

    def _complete_window(self, iso2: str, ws: _WindowState) -> None:
        assert ws.series is not None
        for kind in SignalKind:
            ss = ws.series[kind]
            if ss.fed < ss.n_bins:
                raise StreamError(
                    f"window {ws.window} of {iso2} closed with "
                    f"{ss.n_bins - ss.fed} {kind.value} bins never fed")
            ss.episodes.extend(ss.grouper.finalize())

    @staticmethod
    def _episodes_of(ws: _WindowState, *, provisional: bool
                     ) -> Dict[SignalKind, List[AlertEpisode]]:
        assert ws.series is not None
        episodes: Dict[SignalKind, List[AlertEpisode]] = {}
        for kind in SignalKind:
            ss = ws.series[kind]
            eps = list(ss.episodes)
            if provisional:
                open_episode = ss.grouper.open_episode()
                if open_episode is not None:
                    eps.append(open_episode)
            episodes[kind] = eps
        return episodes

    # -- lifecycle -------------------------------------------------------------

    def _refresh_lifecycle(self, cs: _CountryState,
                           ws: _WindowState) -> List[StreamEvent]:
        """Re-cluster the window's provisional view; emit open/update.

        Pure with respect to the run: clustering, the observation
        calendar, and visibility recomputation touch neither the RNG
        nor record ids, so a watched stream records the same bytes as
        an unwatched one.
        """
        events: List[StreamEvent] = []
        candidates = self._pipeline.cluster_episodes(
            self._episodes_of(ws, provisional=True))
        consumed: set = set()
        for candidate in candidates:
            if not self._pipeline.observes(candidate.span.start):
                continue
            visible = tuple(self._pipeline.visible_signals_of(candidate))
            if not visible:
                continue
            span = candidate.span
            matches = sorted(
                key for key, open_ in ws.opens.items()
                if key not in consumed and open_.span.overlaps(span))
            if not matches:
                open_ = _Open(key=span.start, span=span, signals=visible)
                ws.opens[open_.key] = open_
                consumed.add(open_.key)
                events.append(self._emit(
                    "open", cs.iso2, ws, open_,
                    capsule_id=self._lifecycle_capsule(
                        "open", cs.iso2, ws, open_)))
                continue
            keep = matches[0]
            for key in matches[1:]:
                merged = ws.opens.pop(key)
                events.append(self._emit(
                    "close", cs.iso2, ws, merged, outcome="merged",
                    capsule_id=self._merged_capsule(cs.iso2, ws, merged)))
            consumed.add(keep)
            open_ = ws.opens[keep]
            if open_.span != span or open_.signals != visible:
                open_.span = span
                open_.signals = visible
                events.append(self._emit(
                    "update", cs.iso2, ws, open_,
                    capsule_id=self._lifecycle_capsule(
                        "update", cs.iso2, ws, open_)))
        return events

    def _close_window(self, cs: _CountryState, ws: _WindowState,
                      adj: WindowAdjudication) -> List[StreamEvent]:
        """Resolve the window's lifecycle against its adjudication."""
        events: List[StreamEvent] = []
        consumed: set = set()
        for outcome in adj.outcomes:
            matches = sorted(
                key for key, open_ in ws.opens.items()
                if key not in consumed
                and open_.span.overlaps(outcome.span))
            consumed.update(matches)
            if outcome.outcome == "unobserved":
                # Never opened in the common case (the calendar gap is
                # checked before opening); a span drift that flipped the
                # check closes any stale open quietly.
                for key in matches:
                    events.append(self._emit(
                        "close", cs.iso2, ws, ws.opens.pop(key),
                        outcome="dismissed",
                        capsule_id=outcome.capsule_id))
                continue
            if matches:
                for key in matches[1:]:
                    merged = ws.opens.pop(key)
                    events.append(self._emit(
                        "close", cs.iso2, ws, merged, outcome="merged",
                        capsule_id=self._merged_capsule(cs.iso2, ws,
                                                        merged)))
                open_ = ws.opens.pop(matches[0])
                open_.span = outcome.span
                open_.signals = outcome.signals
                events.append(self._emit(
                    "close", cs.iso2, ws, open_,
                    outcome=outcome.outcome, record=outcome.record,
                    capsule_id=outcome.capsule_id))
                continue
            if not outcome.signals and outcome.outcome != "recorded":
                continue  # never visible, never opened: no lifecycle
            # Opened and closed within one advance: synthesize the open
            # so every close has a matching open on the wire.  Both
            # sides reference the adjudication capsule.
            open_ = _Open(key=outcome.span.start, span=outcome.span,
                          signals=outcome.signals)
            events.append(self._emit("open", cs.iso2, ws, open_,
                                     capsule_id=outcome.capsule_id))
            events.append(self._emit(
                "close", cs.iso2, ws, open_, outcome=outcome.outcome,
                record=outcome.record, capsule_id=outcome.capsule_id))
        for key in sorted(ws.opens):
            merged = ws.opens.pop(key)
            events.append(self._emit(
                "close", cs.iso2, ws, merged, outcome="merged",
                capsule_id=self._merged_capsule(cs.iso2, ws, merged)))
        return events

    def _lifecycle_capsule(self, state: str, iso2: str, ws: _WindowState,
                           open_: _Open,
                           outcome: Optional[str] = None) -> Optional[str]:
        """Mint a lifecycle capsule for a provisional event (or None).

        Provisional spans depend on how the feed was chunked, so these
        capsules are lifecycle evidence only — ``runs diff
        --provenance`` compares adjudication capsules exclusively.
        """
        recorder = current().provenance
        if recorder is None:
            return None
        payload: Dict = {
            "stage": "lifecycle",
            "state": state,
            "country_iso2": iso2,
            "window_start": ws.window.start,
            "span": {"start": open_.span.start, "end": open_.span.end},
            "signals": sorted(k.value for k in open_.signals),
        }
        if outcome is not None:
            payload["outcome"] = outcome
        return recorder.emit(payload)

    def _merged_capsule(self, iso2: str, ws: _WindowState,
                        open_: _Open) -> Optional[str]:
        """Capsule + decision counter for a merge-into-neighbour close."""
        current().metrics.counter("curation.decision.merged",
                                  reason="merged_into_neighbor").inc()
        return self._lifecycle_capsule("close", iso2, ws, open_,
                                       outcome="merged")

    def _emit(self, state: str, iso2: str, ws: _WindowState, open_: _Open,
              outcome: Optional[str] = None,
              record: Optional[OutageRecord] = None,
              capsule_id: Optional[str] = None) -> StreamEvent:
        assert self._watermark is not None
        return StreamEvent(
            seq=next(self._seq), state=state, key=f"{iso2}:{open_.key}",
            country_iso2=iso2, window_start=ws.window.start,
            span=open_.span, signals=open_.signals,
            watermark=self._watermark, outcome=outcome, record=record,
            capsule_id=capsule_id)

    # -- adjudication ----------------------------------------------------------

    def _adjudicate(self, due: Dict[str, List[_WindowState]]
                    ) -> Dict[str, List[WindowAdjudication]]:
        order = sorted(due)
        units = [
            (self._pipeline.config, self._period, iso2,
             [(ws.window, self._episodes_of(ws, provisional=False))
              for ws in due[iso2]],
             cs.rng_state, cs.next_record_id, cs.draw_index)
            for iso2 in order for cs in (self._countries[iso2],)]
        out: Dict[str, List[WindowAdjudication]] = {}
        for iso2, adjudicated in zip(
                order, self._pool.map(_adjudicate_windows, units)):
            cs = self._countries[iso2]
            (out[iso2], cs.rng_state, cs.next_record_id,
             cs.draw_index) = adjudicated
        return out

    # -- completion ------------------------------------------------------------

    def finalized_records(self) -> List[OutageRecord]:
        """The canonical curated dataset, once every window closed.

        Same merge as batch: per-country lists in sorted country order
        through :func:`repro.ioda.curation.finalize_records`.  Raises
        :class:`~repro.errors.StreamError` while windows remain open —
        advance the watermark to :attr:`horizon` first.
        """
        pending = [(cs.iso2, ws.window.start)
                   for iso2 in self._order
                   for cs in (self._countries[iso2],)
                   for ws in cs.windows if not ws.adjudicated]
        if pending:
            raise StreamError(
                f"{len(pending)} windows still open (first: "
                f"{pending[0][0]} @ {pending[0][1]}); advance the "
                f"watermark to the horizon before finalizing")
        return finalize_records(
            self._countries[iso2].records for iso2 in self._order)

    def records_so_far(self) -> List[OutageRecord]:
        """Records of every window adjudicated so far (the live feed).

        Same deterministic merge as :meth:`finalized_records`, over
        whatever has closed — this is what a live
        :meth:`~repro.stream.session.StreamSession.client` serves, with
        the watermark as its feed revision.
        """
        return finalize_records(
            self._countries[iso2].records for iso2 in self._order)

    def close(self) -> None:
        """Release the worker pool (a no-op if it never started)."""
        self._pool.close()
