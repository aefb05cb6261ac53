"""Streaming detection and the api.stream surface.

The load-bearing claim of :mod:`repro.stream` is **byte-identity**: a
run streamed bin-by-bin under an advancing watermark — however the bins
are chunked, in whatever order they arrive within a watermark step, on
any backend — finalizes to exactly the records a batch
:func:`repro.api.run` produces.  These tests assert that on the
canonical scenario (the acceptance bar) and probe the contract edges:
out-of-order and duplicate pushes, conflicting values, regressing
watermarks, bins missing under an advanced watermark, windows that open
and close within one advance, and fault-injected streams that recover.
"""

import json
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.api as api
from repro.errors import CursorError, StreamError
from repro.io import record_to_dict
from repro.resilience import ResilienceConfig
from repro.stream.models import BinBatch, BinSegment
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

from tests.conftest import CANONICAL_SEED

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 5, 1))
WEEK = 7 * 86400


def record_bytes(records):
    return json.dumps([record_to_dict(r) for r in records],
                      sort_keys=True)


def small_stream(**kwargs):
    return api.stream(scenario_config=SMALL_CONFIG,
                      study_period=SMALL_PERIOD, **kwargs)


@pytest.fixture(scope="module")
def batch_small():
    return api.run(scenario_config=SMALL_CONFIG,
                   study_period=SMALL_PERIOD, backend="serial")


@pytest.fixture(scope="module")
def batch_small_bytes(batch_small):
    return record_bytes(batch_small.curated_records)


class TestCanonicalEquivalence:
    """finalize() ≡ run() on the canonical scenario, every backend."""

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 4)])
    def test_stream_matches_batch(self, pipeline_result, backend,
                                  workers):
        session = api.stream(seed=CANONICAL_SEED, backend=backend,
                             workers=workers)
        result = session.finalize()
        assert len(result.curated_records) == 1081
        assert record_bytes(result.curated_records) \
            == record_bytes(pipeline_result.curated_records)

    def test_stats_and_health_populated(self, pipeline_result):
        result = api.stream(seed=CANONICAL_SEED).finalize()
        assert result.stats.n_records == 1081
        assert [s.name for s in result.stats.stages] == [
            "scenario", "curate", "kio", "merge", "datasets"]
        assert result.health.grade in ("pass", "warn", "fail")
        # Fidelity exact: the streamed merge reproduces the batch one.
        assert len(result.merged.labeled) \
            == len(pipeline_result.merged.labeled)


class TestChunkingInvariance:
    @pytest.mark.parametrize("step", [5 * 86400, 17 * 86400 + 3600])
    def test_any_step_is_byte_identical(self, batch_small_bytes, step):
        session = small_stream()
        for _ in session.replay(step):
            pass
        result = session.finalize()
        assert record_bytes(result.curated_records) == batch_small_bytes

    def test_single_giant_advance(self, batch_small_bytes):
        # Every window opens and closes within one advance: the
        # lifecycle synthesizes the opens, the records stay identical.
        session = small_stream()
        events = next(iter(session.replay(10 * 365 * 86400)))
        result = session.finalize()
        assert record_bytes(result.curated_records) == batch_small_bytes
        opened = [e.key for e in events if e.state == "open"]
        closed = [e.key for e in events if e.state == "close"]
        assert opened and sorted(opened) == sorted(closed)

    def test_partial_replay_then_finalize(self, batch_small_bytes):
        session = small_stream()
        next(iter(session.replay(WEEK)))  # abandon the replay early
        result = session.finalize()      # finalize ingests the rest
        assert record_bytes(result.curated_records) == batch_small_bytes


class TestBackendsSmall:
    @pytest.mark.parametrize("backend", ["process"])
    def test_parallel_backends_match_serial(self, batch_small_bytes,
                                            backend):
        session = small_stream(backend=backend, workers=3)
        for _ in session.replay(4 * WEEK):
            pass
        result = session.finalize()
        assert record_bytes(result.curated_records) == batch_small_bytes

    def test_process_workers_report_metrics_and_spans(self):
        """Process workers' counters and spans reach the parent."""
        import os

        def replayed(backend, workers):
            obs = api.Observability()
            session = small_stream(backend=backend, workers=workers,
                                   observability=obs)
            for _ in session.replay(6 * 3600):
                pass
            result = session.finalize()
            decisions = {
                key: value for key, value
                in obs.metrics_snapshot()["counters"].items()
                if key.startswith("curation.decision.")}
            return result, decisions, obs.tracer.spans()

        serial, serial_decisions, _ = replayed("serial", 1)
        process, process_decisions, spans = replayed("process", 2)
        assert sum(serial_decisions.values()) > 0
        assert process_decisions == serial_decisions
        assert record_bytes(process.curated_records) \
            == record_bytes(serial.curated_records)
        assert process.stats.backend == "process"
        assert serial.stats.backend == "serial"
        curate, = [s for s in spans if s.name == "stage:curate"]
        here = f"{os.getpid()}/"
        workers = [s for s in spans if s.name == "stream.adjudicate"
                   and not s.worker.startswith(here)]
        assert workers, "no worker spans adopted"
        assert all(s.parent_id == curate.span_id for s in workers)
        assert all(s.attrs["backend"] == "process" for s in workers)


class TestPushContract:
    def test_out_of_order_within_watermark(self, batch_small_bytes):
        # Bins may arrive in any order as long as they precede the
        # watermark that consumes them.
        session = small_stream()
        for batch in session._source.batches(2 * WEEK):
            session.push(sorted(batch.bins, key=lambda b: -b.time))
            session.advance_watermark(batch.watermark)
        result = session.finalize()
        assert record_bytes(result.curated_records) == batch_small_bytes

    def test_duplicate_pushes_are_idempotent(self, batch_small_bytes):
        session = small_stream()
        for batch in session._source.batches(4 * WEEK):
            first = session.push(batch.bins)
            assert session.push(batch.bins) == 0  # replays accepted
            assert first == len(batch.bins)
            session.advance_watermark(batch.watermark)
        result = session.finalize()
        assert record_bytes(result.curated_records) == batch_small_bytes

    def test_conflicting_duplicate_rejected(self):
        session = small_stream()
        try:
            batch = next(session._source.batches(4 * WEEK))
            session.push(batch.bins)
            clash = batch.bins[0]
            forged = type(clash)(
                country_iso2=clash.country_iso2, kind=clash.kind,
                window_start=clash.window_start, time=clash.time,
                value=clash.value + 0.25)
            with pytest.raises(StreamError, match="conflicting"):
                session.push([forged])
        finally:
            session.close()

    def test_unknown_country_rejected(self):
        session = small_stream()
        try:
            batch = next(session._source.batches(4 * WEEK))
            stray = type(batch.bins[0])(
                country_iso2="ZZ", kind=batch.bins[0].kind,
                window_start=batch.bins[0].window_start,
                time=batch.bins[0].time, value=0.5)
            with pytest.raises(StreamError, match="ZZ"):
                session.push([stray])
        finally:
            session.close()

    def test_missing_bin_under_watermark_is_loud(self):
        session = small_stream()
        try:
            batch = next(session._source.batches(4 * WEEK))
            session.push(batch.bins[:-1])  # drop one elapsed bin
            with pytest.raises(StreamError, match="before it was pushed"):
                session.advance_watermark(batch.watermark)
        finally:
            session.close()

    def test_watermark_must_not_regress(self):
        session = small_stream()
        try:
            for batch in session._source.batches(4 * WEEK):
                session.push(batch.bins)
                session.advance_watermark(batch.watermark)
                break
            assert session.advance_watermark(session.watermark) == []
            with pytest.raises(StreamError, match="regress"):
                session.advance_watermark(session.watermark - 1)
        finally:
            session.close()


def _reseg(seg, lo, hi, values=None, **overrides):
    """Bins ``lo:hi`` of ``seg`` as their own segment."""
    fields = dict(country_iso2=seg.country_iso2, kind=seg.kind,
                  window_start=seg.window_start,
                  first_time=seg.first_time + lo * seg.kind.bin_width,
                  values=seg.values[lo:hi] if values is None else values)
    fields.update(overrides)
    return BinSegment(**fields)


class TestSegmentPushContract:
    @pytest.fixture
    def fed(self):
        """A live session and the longest segment of its first batch."""
        session = small_stream()
        batch = next(session._source.batches(4 * WEEK))
        seg = max(batch.segments, key=len)
        assert len(seg) >= 8
        yield session, seg
        session.close()

    def test_partial_overlap_counts_only_new_bins(self, fed):
        session, seg = fed
        assert session.push([_reseg(seg, 2, 5)]) == 3
        assert session.push([seg]) == len(seg) - 3
        assert session.push([seg]) == 0
        grid = session._engine._countries[seg.country_iso2] \
            .by_start[seg.window_start].series[seg.kind]
        lo = (seg.first_time - grid.start) // grid.width
        np.testing.assert_array_equal(grid.values[lo:lo + len(seg)],
                                      seg.values)

    def test_conflict_inside_segment_names_first_bin(self, fed):
        session, seg = fed
        session.push([seg])
        forged = seg.values.copy()
        forged[3:5] += 0.25
        clash = seg.first_time + 3 * seg.kind.bin_width
        with pytest.raises(StreamError,
                           match=f"conflicting duplicate .* at {clash}:"):
            session.push([_reseg(seg, 0, len(seg), values=forged)])

    def test_conflict_message_prints_plain_floats(self, fed):
        session, seg = fed
        session.push([seg])
        forged = seg.values.copy()
        forged[0] = 0.25 if forged[0] != 0.25 else 0.5
        with pytest.raises(StreamError) as err:
            session.push([_reseg(seg, 0, len(seg), values=forged)])
        assert "np.float64" not in str(err.value)
        assert f"got {float(forged[0])!r}" in str(err.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_values_rejected(self, fed, value):
        session, seg = fed
        bad = seg.values.copy()
        bad[1] = value
        at = seg.first_time + seg.kind.bin_width
        for _ in range(2):  # rejected every time, never half-accepted
            with pytest.raises(StreamError,
                               match=f"non-finite value {value!r} .* "
                                     f"at {at}$"):
                session.push([_reseg(seg, 0, len(seg), values=bad)])
        lone = next(_reseg(seg, 1, 2, values=[value]).bins())
        with pytest.raises(StreamError, match="non-finite"):
            session.push([lone])
        assert session.push([seg]) == len(seg)

    def test_off_grid_first_time_rejected(self, fed):
        session, seg = fed
        with pytest.raises(StreamError, match="off the"):
            session.push([_reseg(seg, 0, 2,
                                 first_time=seg.first_time + 1)])

    def test_segment_past_grid_end_rejected(self, fed):
        session, seg = fed
        grid = session._engine._countries[seg.country_iso2] \
            .by_start[seg.window_start].series[seg.kind]
        tail = _reseg(seg, 0, 2, first_time=grid.end - grid.width)
        with pytest.raises(StreamError, match=f"bin at {grid.end} is off"):
            session.push([tail])

    def test_unknown_country_and_window_rejected(self, fed):
        session, seg = fed
        with pytest.raises(StreamError, match="ZZ"):
            session.push([_reseg(seg, 0, 2, country_iso2="ZZ")])
        with pytest.raises(StreamError, match="no investigation window"):
            session.push([_reseg(seg, 0, 2,
                                 window_start=seg.window_start + 1)])

    def test_push_into_adjudicated_window_rejected(self):
        session = small_stream()
        try:
            batches = session._source.batches(4 * WEEK)
            first = next(batches)
            seg = first.segments[0]
            window = session._engine._countries[seg.country_iso2] \
                .by_start[seg.window_start]
            session.push(first.segments)
            session.advance_watermark(first.watermark)
            for batch in batches:
                if window.adjudicated:
                    break
                session.push(batch.segments)
                session.advance_watermark(batch.watermark)
            assert window.adjudicated
            with pytest.raises(StreamError, match="already adjudicated"):
                session.push([seg])
        finally:
            session.close()

    def test_empty_segment_accepts_nothing(self, fed):
        session, seg = fed
        assert session.push([_reseg(seg, 0, 0)]) == 0
        assert session._engine.bins_pushed == 0

    def test_batch_rejects_segment_at_its_watermark(self, fed):
        _, seg = fed
        with pytest.raises(StreamError, match="not covered"):
            BinBatch(segments=(seg,), watermark=seg.last_time)
        BinBatch(segments=(seg,), watermark=seg.last_time + 1)

    def test_segment_pickles_and_stays_read_only(self, fed):
        _, seg = fed
        copy = pickle.loads(pickle.dumps(seg))
        assert copy == seg
        assert copy != _reseg(seg, 0, len(seg), values=seg.values + 1.0)
        for values in (seg.values, copy.values):
            with pytest.raises(ValueError):
                values[0] = 1.0

    def test_writable_input_is_copied(self, fed):
        _, seg = fed
        source = np.array(seg.values)
        owned = _reseg(seg, 0, len(seg), values=source)
        source[0] += 1.0
        assert owned == seg


def _repackaged(batch, rnd):
    """``batch`` re-split, partly as single bins, with some bins offered
    twice, in shuffled order."""
    items = []
    for seg in batch.segments:
        if rnd.random() < 0.2:
            lo = rnd.randrange(len(seg))
            items.append(_reseg(seg, lo, rnd.randint(lo + 1, len(seg))))
        cuts = sorted(rnd.sample(range(1, len(seg)),
                                 min(len(seg) - 1, rnd.randint(0, 3))))
        for lo, hi in zip([0] + cuts, cuts + [len(seg)]):
            piece = _reseg(seg, lo, hi)
            if rnd.random() < 0.1:
                items.extend(piece.bins())
            else:
                items.append(piece)
    rnd.shuffle(items)
    return items


class TestPackagingInvariance:
    """However a replay's bins are packaged, finalize matches batch.

    Duplicated bins overlap the segments around them, so the property
    also covers the partial-overlap write path.
    """

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_resplit_shuffled_mixed_feed(self, batch_small_bytes, seed):
        rnd = random.Random(seed)
        session = small_stream()
        try:
            for batch in session._source.batches(3 * WEEK):
                session.push(_repackaged(batch, rnd))
                session.advance_watermark(batch.watermark)
            result = session.finalize()
        finally:
            session.close()
        assert record_bytes(result.curated_records) == batch_small_bytes

    def test_finalize_after_an_outside_feed(self, batch_small_bytes):
        # The caller feeds bins from elsewhere (here another session's
        # source) and closes some windows; finalize then replays the
        # session's own source from the start and must not re-offer
        # bins the watermark already consumed.
        feeder = small_stream()
        batches = feeder._source.batches(3 * WEEK)
        session = small_stream()
        try:
            total = session._engine.active_window_count
            while session._engine.active_window_count == total:
                batch = next(batches)
                session.push(batch.segments)
                session.advance_watermark(batch.watermark)
            result = session.finalize()
        finally:
            feeder.close()
            session.close()
        assert record_bytes(result.curated_records) == batch_small_bytes


class TestLifecycle:
    @pytest.fixture(scope="class")
    def streamed(self):
        session = small_stream()
        for _ in session.replay(2 * WEEK):
            pass
        result = session.finalize()
        return session.events(), result

    def test_every_close_has_an_open(self, streamed):
        events, _ = streamed
        seen_open = set()
        for event in events:
            if event.state == "open":
                seen_open.add(event.key)
            else:
                assert event.key in seen_open, event
        closes = [e for e in events if e.state == "close"]
        opens = [e for e in events if e.state == "open"]
        assert len(closes) == len(opens)

    def test_recorded_closes_carry_the_records(self, streamed):
        # Lifecycle records carry per-country provisional ids;
        # finalize_records reassigns them globally.  Everything else
        # must match record-for-record.
        events, result = streamed

        def keyed(records):
            rows = sorted((record_to_dict(r) for r in records),
                          key=lambda d: (d["start"], d["country"]))
            for row in rows:
                row.pop("record_id")
            return rows

        recorded = [e.record for e in events
                    if e.state == "close" and e.outcome == "recorded"]
        assert all(r is not None for r in recorded)
        assert keyed(recorded) == keyed(result.curated_records)

    def test_outcomes_are_typed(self, streamed):
        events, _ = streamed
        for event in events:
            if event.state == "close":
                assert event.outcome in ("recorded", "dismissed",
                                         "merged")
            else:
                assert event.outcome is None
            assert event.seq > 0 and event.signals is not None

    def test_seq_is_gap_free_and_ordered(self, streamed):
        events, _ = streamed
        assert [e.seq for e in events] \
            == list(range(1, len(events) + 1))


class TestFaultedStream:
    def test_faulted_stream_recovers_byte_identical(
            self, batch_small_bytes):
        session = small_stream(
            resilience=ResilienceConfig(faults="fail_first=2;seed=5"))
        for _ in session.replay(4 * WEEK):
            pass
        result = session.finalize()
        assert record_bytes(result.curated_records) == batch_small_bytes


class TestSessionLifetime:
    def test_finalize_is_idempotent(self, batch_small):
        session = small_stream()
        result = session.finalize()
        assert session.finalize() is result
        assert session.finalized

    def test_feed_closed_after_finalize(self):
        session = small_stream()
        session.finalize()
        with pytest.raises(StreamError, match="finalized"):
            session.push([])
        with pytest.raises(StreamError, match="finalized"):
            session.advance_watermark(session.horizon)

    def test_context_manager_finalizes(self, batch_small_bytes):
        with small_stream() as session:
            pass
        assert record_bytes(session.finalize().curated_records) \
            == batch_small_bytes

    def test_close_abandons_without_result(self):
        session = small_stream()
        session.close()
        assert not session.finalized
        with pytest.raises(StreamError):
            session.finalize()


class TestLiveClient:
    def test_cursor_bound_to_stream_revision(self):
        session = small_stream()
        try:
            client = session.client()
            replay = session.replay(2 * WEEK)
            next(replay)
            while client.get_events(limit=5).total == 0:
                next(replay)
            page = client.get_events(limit=1)
            assert page.cursor is not None
            next(replay)  # the watermark (feed revision) moves
            with pytest.raises(CursorError):
                client.get_events(limit=1, cursor=page.cursor)
        finally:
            session.close()

    def test_live_feed_grows_with_the_stream(self, batch_small):
        session = small_stream()
        try:
            client = session.client()
            assert client.get_events(limit=500).total == 0
            for _ in session.replay(2 * WEEK):
                pass
            result = session.finalize()
            assert client.get_events(limit=5000).total \
                == len(result.curated_records)
        finally:
            session.close()


class TestJournalAndTelemetry:
    def test_stream_events_journaled_and_heartbeat_block(self, tmp_path):
        journal = tmp_path / "stream.jsonl"
        session = small_stream(
            observability=api.Observability(journal=journal,
                                            telemetry="20ms"))
        for _ in session.replay(4 * WEEK):
            pass
        result = session.finalize()
        lines = [json.loads(line)
                 for line in journal.read_text().splitlines()]
        stream_events = [l for l in lines if l["type"] == "stream.event"]
        recorded = [l for l in stream_events
                    if l.get("outcome") == "recorded"]
        assert len(recorded) == len(result.curated_records)
        heartbeats = [l for l in lines if l["type"] == "heartbeat"]
        assert heartbeats
        blocks = [h["stream"] for h in heartbeats if "stream" in h]
        assert blocks, "no heartbeat carried a stream block"
        final = blocks[-1]
        assert final["windows_active"] == 0
        assert final["open_events"] == 0
        assert final["bins_pushed"] > 0
        assert {"watermark", "lag_seconds"} <= set(final)
