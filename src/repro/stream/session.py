"""The public streaming session.

A :class:`StreamSession` (constructed by :func:`repro.api.stream`) is
the incremental twin of :func:`repro.api.run`: the same pipeline, but
with the observation+curation stage driven from outside, segment by
segment.
The session opens the run's observability envelope up front — session
activation, fault-plan injection, telemetry, the ``run`` and
``stage:scenario`` spans — builds the world once, and then holds the
``stage:curate`` span open while the caller streams:

    session = api.stream(seed=2023)
    for events in session.replay(step=7 * 86400):
        ...                      # live open/update/close lifecycle
    result = session.finalize()  # a RunResult, byte-identical to run()

Adjudication is scheduled by the pipeline's
:class:`~repro.exec.ExecutorConfig` (the ``workers``/``backend`` of
:func:`repro.api.stream`): the engine sends each advance's due
countries through the batch executor's worker pool
(:class:`~repro.exec.workers.WorkerPool`), whose process workers, once
started, keep the world resident until the session finalizes or
closes.

``push``/``advance_watermark`` are the raw feed interface (any bin
order, duplicate-tolerant, :class:`~repro.stream.models.BinSegment`\\ s
and :class:`~repro.stream.models.SignalBin`\\ s alike — see
:class:`~repro.stream.engine.StreamEngine`); :meth:`replay` drives them
with the segments of the scenario's own
:class:`~repro.stream.source.ScenarioBinSource`.  Every lifecycle
event is journaled as a ``stream.event`` record, and the engine's
progress is exported as live gauges (``stream.watermark``,
``stream.lag_seconds``, ``stream.open_events``,
``stream.windows_active``) plus a ``stream.bins_pushed`` counter —
which is what the heartbeat sampler's ``stream`` block reports.

:meth:`finalize` ingests whatever the caller did not push (the source
replays deterministic bins, so re-pushed duplicates are no-ops),
advances the watermark to the horizon, and completes the pipeline's
remaining stages over the streamed records — KIO, merge, datasets,
stats, health, registry filing — so the returned
:class:`~repro.api.RunResult` is byte-identical to a batch run on
every backend.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator, List, Optional, Union

from repro.core.pipeline import ReproPipeline
from repro.errors import StreamError
from repro.exec import backend_label
from repro.ioda.api import IODAClient
from repro.ioda.curation import CurationConfig, CurationPipeline
from repro.ioda.platform import IODAPlatform
from repro.obs.runtime import activate
from repro.resilience import ResilienceConfig, inject
from repro.stream.engine import StreamEngine
from repro.stream.models import BinSegment, SignalBin, StreamEvent
from repro.stream.source import ScenarioBinSource
from repro.timeutils.timestamps import TimeRange

__all__ = ["StreamSession"]


class StreamSession:
    """One incremental run: push bins, watch events, finalize.

    Construct through :func:`repro.api.stream` — the facade assembles
    the pipeline, resilience config, and registry packaging exactly as
    :func:`repro.api.run` would.  The session is single-shot: after
    :meth:`finalize` (idempotent) or :meth:`close` the feed interface
    raises :class:`~repro.errors.StreamError`.
    """

    def __init__(self, pipeline: ReproPipeline, *, seed: int,
                 period: TimeRange,
                 curation_config: Optional[CurationConfig] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 package: Optional[Callable] = None):
        self._pipeline = pipeline
        self._period = period
        self._package = package
        self._resilience = resilience
        self._result = None
        self._closed = False
        self._queued: List[StreamEvent] = []
        self._stack = contextlib.ExitStack()
        try:
            self._obs = obs = pipeline.build_observability()
            plan = (resilience.fault_plan if resilience is not None
                    else None)
            self._stack.enter_context(activate(obs))
            self._stack.enter_context(inject(plan))
            obs.start_telemetry()
            self._stack.callback(obs.stop_telemetry)
            self._stack.enter_context(obs.span("run", seed=seed))
            with obs.span("stage:scenario"):
                self._scenario = pipeline.build_scenario()
            self._platform = IODAPlatform(self._scenario)
            self._curation = CurationPipeline(
                self._platform, curation_config)
            windows = self._curation.country_windows(period)
            executor = pipeline.executor_config
            self._engine = StreamEngine(self._curation, windows, period,
                                        executor=executor)
            self._source = ScenarioBinSource(
                self._platform, windows, resilience=resilience)
            # Held open for the whole streamed stage; finalize closes
            # it so the remaining stages become its siblings, exactly
            # as in a batch run.
            self._curate_cm = obs.span(
                "stage:curate", workers=executor.workers,
                backend=backend_label(executor.backend, executor.workers),
                streaming=True)
            self._curate_span = self._curate_cm.__enter__()
        except BaseException:
            self._stack.close()
            raise

    # -- introspection -----------------------------------------------------------

    @property
    def scenario(self):
        """The generated world the session streams."""
        return self._scenario

    @property
    def watermark(self) -> Optional[int]:
        """The last advanced watermark (None before the first advance)."""
        return self._engine.watermark

    @property
    def horizon(self) -> int:
        """The watermark at which every investigation window closes."""
        return self._engine.horizon

    @property
    def finalized(self) -> bool:
        return self._result is not None

    # -- the feed ----------------------------------------------------------------

    def push(self, bins: Iterable[Union[BinSegment, SignalBin]]) -> int:
        """Offer bin segments and/or bins; return how many bins were new.

        Order-free and duplicate-idempotent; contract violations raise
        :class:`~repro.errors.StreamError` (see
        :meth:`repro.stream.engine.StreamEngine.push`).
        """
        self._check_live()
        accepted = self._engine.push(bins)
        if accepted:
            self._obs.metrics.counter("stream.bins_pushed").inc(accepted)
        self._update_gauges()
        return accepted

    def advance_watermark(self, watermark: int) -> List[StreamEvent]:
        """Advance time; return this advance's lifecycle events.

        Elapsed bins feed the incremental detectors, windows fully past
        the watermark are adjudicated (on the session's backend), and
        the resulting ``open``/``update``/``close`` events are
        journaled, queued for :meth:`events`, and returned.
        """
        self._check_live()
        events = self._engine.advance(watermark)
        self._record(events)
        return events

    def events(self) -> List[StreamEvent]:
        """Drain the lifecycle events queued since the last drain.

        Events accumulate across :meth:`advance_watermark` calls (and
        :meth:`finalize`'s closing advance), so a consumer polling this
        never misses one.
        """
        drained, self._queued = self._queued, []
        return drained

    def replay(self, step: int) -> Iterator[List[StreamEvent]]:
        """Drive the feed from the scenario's own bin source.

        Yields each advance's lifecycle events as the watermark walks
        the study period in ``step``-second increments.  Breaking out
        early is fine — :meth:`finalize` ingests whatever remains.
        """
        for batch in self._source.batches(step):
            self.push(batch.segments)
            yield self.advance_watermark(batch.watermark)

    def client(self) -> IODAClient:
        """A live :class:`~repro.ioda.api.IODAClient` over this stream.

        The event feed serves the records curated *so far*; cursors are
        bound to the session's watermark (the feed revision), so a
        cursor minted before an advance fails loudly with
        :class:`~repro.errors.CursorError` instead of silently paging a
        shifted feed.
        """
        return IODAClient(
            self._platform, feed=self._engine.records_so_far,
            revision=lambda: self._engine.watermark)

    # -- completion --------------------------------------------------------------

    def finalize(self):
        """Complete the run; return its :class:`~repro.api.RunResult`.

        Pushes any bins the caller never streamed (deterministic
        replays, so duplicates are no-ops; bins the watermark already
        consumed are not offered again), advances the watermark to
        the horizon (closing every remaining window and queueing the
        closing lifecycle events — still visible via :meth:`events`),
        and runs the pipeline's remaining stages over the streamed
        records.  Idempotent: later calls return the same result.
        """
        if self._result is not None:
            return self._result
        self._check_live()
        horizon = self._engine.horizon
        step = max(horizon - self._source.origin, 1)
        consumed = self._engine.watermark
        for batch in self._source.batches(step):
            # Bins the watermark already consumed were pushed by the
            # caller; their windows may be adjudicated, so skip them.
            self.push([seg for seg in batch.segments
                       if consumed is None
                       or seg.last_time + seg.kind.bin_width > consumed])
        try:
            self.advance_watermark(horizon)
            records = self._engine.finalized_records()
            self._curate_span.set_attrs(
                n_records=len(records), degraded=False, quarantined=())
            self._curate_cm.__exit__(None, None, None)
            result = self._pipeline.complete(self._scenario, records)
            self._stack.close()
            self._pipeline.finish(self._obs, result)
        except BaseException:
            self.close()
            raise
        self._engine.close()
        self._closed = True
        if self._package is not None:
            self._result = self._package(self._pipeline, self._obs,
                                         result)
        else:
            from repro.api import RunResult

            assert (self._pipeline.stats is not None
                    and self._pipeline.health is not None)
            self._result = RunResult(
                events=result, stats=self._pipeline.stats,
                health=self._pipeline.health)
        return self._result

    def close(self) -> None:
        """Abandon the stream without completing the run (idempotent).

        Releases the engine's pool and seals the observability session;
        a finalized session's :meth:`finalize` result stays valid.
        """
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(BaseException):
            self._curate_cm.__exit__(None, None, None)
        self._stack.close()
        self._engine.close()
        self._obs.finish()

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc) -> None:
        if self._result is None and exc == (None, None, None):
            self.finalize()
        else:
            self.close()

    # -- internals ---------------------------------------------------------------

    def _check_live(self) -> None:
        if self._closed:
            raise StreamError(
                "stream session is finalized/closed; start a new one "
                "with api.stream(...)")

    def _record(self, events: List[StreamEvent]) -> None:
        journal = self._obs.journal
        if journal is not None:
            for event in events:
                journal.write({"type": "stream.event",
                               **event.as_dict()})
        self._queued.extend(events)
        self._update_gauges()

    def _update_gauges(self) -> None:
        metrics = self._obs.metrics
        engine = self._engine
        if engine.watermark is not None:
            metrics.gauge("stream.watermark").set(engine.watermark)
        lag = engine.watermark_lag
        if lag is not None:
            metrics.gauge("stream.lag_seconds").set(lag)
        metrics.gauge("stream.open_events").set(engine.open_event_count)
        metrics.gauge("stream.windows_active").set(
            engine.active_window_count)
        recorder = self._obs.provenance
        if recorder is not None:
            metrics.gauge("stream.provenance_capsules").set(
                len(recorder.capsules))
