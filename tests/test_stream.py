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

import pytest

import repro.api as api
from repro.errors import CursorError, StreamError
from repro.io import record_to_dict
from repro.resilience import ResilienceConfig
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
        ("serial", 1), ("thread", 4), ("process", 4)])
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
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_match_serial(self, batch_small_bytes,
                                            backend):
        session = small_stream(backend=backend, workers=3)
        for _ in session.replay(4 * WEEK):
            pass
        result = session.finalize()
        assert record_bytes(result.curated_records) == batch_small_bytes


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
        session = small_stream(journal=journal, telemetry="20ms")
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
