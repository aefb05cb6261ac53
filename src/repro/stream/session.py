"""The public streaming session.

A :class:`StreamSession` (constructed by :func:`repro.api.stream`) is
the incremental twin of :func:`repro.api.run`: the same pipeline, but
with the observation+curation stage driven from outside, segment by
segment.
The session enters the batch run's own envelope
(:meth:`~repro.core.pipeline.ReproPipeline.envelope`: session
activation, fault-plan injection, telemetry, the ``run`` and
``stage:scenario`` spans) on its exit stack, borrows the executor's
prologue (:meth:`~repro.exec.workers.ShardedCurationExecutor.prepare`:
the one platform, the curation pipeline, the window map), and then
holds the ``stage:curate`` span open while the caller streams:

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
order, duplicate-tolerant :class:`~repro.stream.models.BinSegment`\\ s,
a single bin being a one-element segment — see
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
advances the watermark to the horizon, completes the pipeline's
remaining stages over the streamed records — KIO, merge, datasets —
and hands them to the batch run's result tail (stats, health, registry
filing), so the returned :class:`~repro.api.RunResult` is
byte-identical to a batch run on every backend.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, Iterator, List, Optional

from repro.core.pipeline import PipelineResult, ReproPipeline
from repro.errors import StreamError
from repro.exec import backend_label
from repro.ioda.api import IODAClient
from repro.obs.runtime import Observability
from repro.stream.engine import StreamEngine
from repro.stream.models import BinSegment, StreamEvent
from repro.stream.source import ScenarioBinSource

__all__ = ["StreamSession"]


class StreamSession:
    """One incremental run: push bins, watch events, finalize.

    Construct through :func:`repro.api.stream` — the facade assembles
    the pipeline and the run's observability session exactly as
    :func:`repro.api.run` would, and ``finish`` is the run's result
    tail: it grades the finished run, files it in the registry and
    returns the :class:`~repro.api.RunResult` that :meth:`finalize`
    returns.  The session is single-shot: after :meth:`finalize`
    (idempotent) or :meth:`close` the feed interface raises
    :class:`~repro.errors.StreamError`.
    """

    def __init__(self, pipeline: ReproPipeline, observability: Observability,
                 *, finish: Callable[[PipelineResult], Any]):
        self._pipeline = pipeline
        self._obs = observability
        self._finish = finish
        self._result = None
        self._closed = False
        self._queued: List[StreamEvent] = []
        self._stack = contextlib.ExitStack()
        try:
            self._scenario = self._stack.enter_context(
                pipeline.envelope(observability))
            executor = pipeline.executor
            curation, windows = executor.prepare(self._scenario)
            self._platform = curation.platform
            self._engine = StreamEngine(curation, windows, executor.period,
                                        executor=executor.config)
            self._source = ScenarioBinSource(
                self._platform, windows, resilience=executor.resilience)
            # Held open for the whole streamed stage; finalize closes
            # it so the remaining stages become its siblings, exactly
            # as in a batch run.
            workers, backend = executor.config.workers, \
                executor.config.backend
            self._curate_cm = observability.span(
                "stage:curate", workers=workers,
                backend=backend_label(backend, workers), streaming=True)
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

    def push(self, segments: Iterable[BinSegment]) -> int:
        """Offer bin segments; return how many bins were new.

        Order-free and duplicate-idempotent; contract violations raise
        :class:`~repro.errors.StreamError` (see
        :meth:`repro.stream.engine.StreamEngine.push`).
        """
        self._check_live()
        accepted = self._engine.push(segments)
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
            events = self._pipeline.complete(self._scenario, records)
            self._stack.close()
        except BaseException:
            self.close()
            raise
        self._engine.close()
        self._closed = True
        self._result = self._finish(events)
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
