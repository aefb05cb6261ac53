"""Live run telemetry: the heartbeat sampler and live-journal readers.

The acceptance bar for the telemetry subsystem:

- heartbeats are **journal-only**: curated records are byte-identical
  with telemetry on or off on every backend (serial, process);
- every backend leaves well-formed heartbeat events in the parent
  journal — process workers sample locally and their beats come home in
  the worker report, with their spans and metrics;
- the journal readers survive a journal that is still being written:
  a torn final line (even torn inside a multi-byte UTF-8 sequence)
  is skipped and the readable prefix replays intact.
"""

import json
import threading
import time

import pytest

import repro.api as api
from repro import io
from repro.exec.stats import publish_shard_done, publish_shard_plan
from repro.obs import (
    HeartbeatSampler,
    MetricsRegistry,
    Observability,
    TelemetryConfig,
    Tracer,
    parse_interval,
    read_journal,
    summarize_events,
)
from repro.obs.runtime import NULL_OBS, WorkerReport, WorkerSettings, \
    run_reported
from repro.obs.telemetry import HEARTBEATS_COUNTER
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))

#: Keys every heartbeat event carries (shards/stream are optional).
HEARTBEAT_KEYS = {"type", "seq", "ts", "elapsed", "pid", "final",
                  "open_spans", "counters", "gauges", "histograms",
                  "proc"}


def _record_bytes(records):
    return json.dumps([io.record_to_dict(r) for r in records],
                      sort_keys=True)


def _sampler(sink, interval=60.0, **kwargs):
    """A sampler wired to fresh obs primitives, never auto-started."""
    tracer = Tracer()
    tracer.track_open = True
    metrics = MetricsRegistry()
    sampler = HeartbeatSampler(
        TelemetryConfig(interval=interval, **kwargs),
        tracer=tracer, metrics=metrics, sink=sink)
    return sampler, tracer, metrics


class TestParseInterval:
    @pytest.mark.parametrize("spec,expected", [
        ("1s", 1.0), ("500ms", 0.5), ("2m", 120.0), ("0.25", 0.25),
        (2, 2.0), (0.1, 0.1), (" 5S ", 5.0),
    ])
    def test_specs(self, spec, expected):
        assert parse_interval(spec) == expected

    @pytest.mark.parametrize("spec", ["abc", "", "1x", "-1s", 0, -2])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_interval(spec)


class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.interval == 5.0
        assert config.final_beat

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetryConfig(interval=0)

    def test_coerce(self):
        assert TelemetryConfig.coerce(None) is None
        config = TelemetryConfig(interval=2.0)
        assert TelemetryConfig.coerce(config) is config
        assert TelemetryConfig.coerce("250ms").interval == 0.25
        assert TelemetryConfig.coerce(3).interval == 3.0


class TestHeartbeatSampler:
    def test_beat_shape(self):
        beats = []
        sampler, tracer, metrics = _sampler(beats.append)
        with tracer.span("run"):
            with tracer.span("stage:curate"):
                event = sampler.beat()
        assert beats == [event]
        assert HEARTBEAT_KEYS <= set(event)
        assert event["type"] == "heartbeat"
        assert event["seq"] == 1
        assert not event["final"]
        assert event["open_spans"] == ["run", "run/stage:curate"]
        assert event["proc"]["cpu_s"] >= 0.0

    def test_counter_deltas_between_beats(self):
        beats = []
        sampler, _, metrics = _sampler(beats.append)
        metrics.counter("work.items").inc(3)
        first = sampler.beat()
        assert first["counters"]["work.items"] == 3
        metrics.counter("work.items").inc(2)
        second = sampler.beat()
        assert second["counters"]["work.items"] == 2
        # Unchanged counters are omitted from the delta map entirely.
        third = sampler.beat()
        assert "work.items" not in third["counters"]

    def test_heartbeats_counter_self_reports(self):
        sampler, _, metrics = _sampler(lambda event: None)
        sampler.beat()
        sampler.beat()
        assert metrics.counter(HEARTBEATS_COUNTER).value == 2
        # The bump lands after the delta computation, so the second
        # beat reports the first beat's increment — never its own.
        event = sampler.beat()
        assert event["counters"][HEARTBEATS_COUNTER] == 1

    def test_histogram_tails(self):
        beats = []
        sampler, _, metrics = _sampler(beats.append)
        histogram = metrics.histogram("shard.seconds")
        for value in (0.2, 0.4, 0.6, 0.8):
            histogram.observe(value)
        metrics.histogram("never.observed")
        tails = sampler.beat()["histograms"]
        assert set(tails) == {"shard.seconds"}
        assert tails["shard.seconds"]["count"] == 4
        expected = histogram.percentiles((50, 99))
        assert tails["shard.seconds"]["p50"] == round(expected[50], 6)
        assert tails["shard.seconds"]["p99"] == round(expected[99], 6)

    def test_shard_progress_and_eta(self):
        sampler, _, metrics = _sampler(lambda event: None)
        assert "shards" not in sampler.beat()
        publish_shard_plan(metrics, 8)
        publish_shard_done(metrics, 2)
        shards = sampler.beat()["shards"]
        assert shards["completed"] == 2
        assert shards["total"] == 8
        assert shards["eta_seconds"] is not None
        publish_shard_done(metrics, 6)
        assert sampler.beat()["shards"]["eta_seconds"] == 0.0

    def test_stream_block(self):
        # Present only once a stream has advanced (the watermark gauge
        # exists); lag is optional until the first advance computes it.
        sampler, _, metrics = _sampler(lambda event: None)
        assert "stream" not in sampler.beat()
        metrics.gauge("stream.watermark").set(1_500_000_000)
        metrics.gauge("stream.open_events").set(4)
        metrics.gauge("stream.windows_active").set(2)
        metrics.counter("stream.bins_pushed").inc(8640)
        block = sampler.beat()["stream"]
        assert block == {"watermark": 1_500_000_000, "open_events": 4,
                         "windows_active": 2, "bins_pushed": 8640}
        metrics.gauge("stream.lag_seconds").set(86400.0)
        assert sampler.beat()["stream"]["lag_seconds"] == 86400

    def test_background_thread_beats_and_final(self):
        beats = []
        sampler, _, _ = _sampler(beats.append, interval=0.02)
        sampler.start()
        assert sampler.running
        deadline = time.monotonic() + 5.0
        while len(beats) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        sampler.stop()
        assert not sampler.running
        assert len(beats) >= 3  # two periodic plus the final beat
        assert [event["seq"] for event in beats] \
            == list(range(1, len(beats) + 1))
        assert beats[-1]["final"]
        assert all(not event["final"] for event in beats[:-1])

    def test_start_and_stop_are_idempotent(self):
        beats = []
        sampler, _, _ = _sampler(beats.append)
        assert sampler.start() is sampler.start()
        sampler.stop()
        sampler.stop()
        assert len(beats) == 1  # exactly one final beat

    def test_final_beat_can_be_disabled(self):
        beats = []
        sampler, _, _ = _sampler(beats.append, final_beat=False)
        sampler.start()
        sampler.stop()
        assert beats == []

    def test_beat_is_thread_safe(self):
        beats = []
        lock = threading.Lock()

        def sink(event):
            with lock:
                beats.append(event)

        sampler, _, metrics = _sampler(sink)
        threads = [threading.Thread(target=sampler.beat)
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(event["seq"] for event in beats) \
            == list(range(1, 9))


class TestObservabilityWiring:
    def test_telemetry_heartbeats_into_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs = Observability(journal=str(path))
        obs.enable_telemetry(TelemetryConfig(interval=60.0))
        assert obs.tracer.track_open
        obs.start_telemetry()
        obs.stop_telemetry()
        obs.finish()
        beats = read_journal(path, types={"heartbeat"})
        assert len(beats) == 1 and beats[0]["final"]

    def test_worker_session_buffers_and_parent_adopts(self, tmp_path):
        settings = Observability(
            telemetry=TelemetryConfig(interval=60.0)).worker_settings()
        result, report = run_reported(settings, lambda: 42)
        assert result == 42
        assert len(report.heartbeats) == 1

        path = tmp_path / "parent.jsonl"
        parent = Observability(journal=str(path))
        parent.adopt(report)
        parent.finish()
        beats = read_journal(path, types={"heartbeat"})
        assert len(beats) == 1
        assert beats[0]["pid"] == report.heartbeats[0]["pid"]
        assert parent.heartbeats == []

    def test_parent_without_journal_buffers_adopted_beats(self):
        settings = WorkerSettings(telemetry=TelemetryConfig(interval=60.0))
        _, report = run_reported(settings, lambda: None)
        parent = Observability()
        parent.adopt(report)
        assert parent.heartbeats == list(report.heartbeats)

    def test_null_observability_is_inert(self):
        NULL_OBS.enable_telemetry("1s")
        NULL_OBS.start_telemetry()
        NULL_OBS.stop_telemetry()
        assert NULL_OBS.worker_settings() is None
        NULL_OBS.adopt(WorkerReport(heartbeats=({"type": "heartbeat"},)))
        assert NULL_OBS.telemetry is None
        assert NULL_OBS.heartbeats == []


class TestPipelineIntegration:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_heartbeats_land_in_journal_on_every_backend(
            self, tmp_path, backend):
        path = tmp_path / f"{backend}.jsonl"
        api.run(scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                workers=2, backend=backend,
                observability=Observability(journal=path,
                                            telemetry="20ms"))
        events = read_journal(path)
        beats = [e for e in events if e["type"] == "heartbeat"]
        assert beats, f"no heartbeats on the {backend} backend"
        for event in beats:
            assert HEARTBEAT_KEYS <= set(event)
        assert any(event["final"] for event in beats)
        # The parent sampler saw the executor's progress series.
        final = [e for e in beats if e["final"]]
        assert any("shards" in e for e in final)
        done = max((e.get("shards", {}).get("completed", 0)
                    for e in beats), default=0)
        assert done == max(e.get("shards", {}).get("total", 0)
                           for e in beats)
        # summarize_events counts them without disturbing span totals.
        summary = summarize_events(events)
        assert summary.n_heartbeats == len(beats)
        assert summary.n_spans > 0

    def test_telemetry_does_not_perturb_results(self):
        baseline = api.run(scenario_config=SMALL_CONFIG,
                           study_period=SMALL_PERIOD)
        expected = _record_bytes(baseline.events.curated_records)
        for backend in ("serial", "process"):
            obs = Observability(
                telemetry=TelemetryConfig(interval=0.05))
            result = api.run(
                scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                workers=2, backend=backend, observability=obs)
            assert _record_bytes(result.events.curated_records) \
                == expected, f"telemetry perturbed the {backend} backend"


class TestLiveJournalReaders:
    def _journal_lines(self):
        return [
            json.dumps({"type": "run_start", "version": 1, "ts": 1.0}),
            json.dumps({"type": "heartbeat", "seq": 1, "final": False}),
            json.dumps({"type": "span", "span_id": 1, "parent_id": None,
                        "name": "run", "start": 0.0, "duration": 1.0}),
            json.dumps({"type": "heartbeat", "seq": 2, "final": True}),
        ]

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "live.jsonl"
        lines = self._journal_lines()
        torn = json.dumps({"type": "span", "span_id": 2})[:9]
        path.write_text("\n".join(lines) + "\n" + torn,
                        encoding="utf-8")
        events = read_journal(path)
        assert [e["type"] for e in events] \
            == ["run_start", "heartbeat", "span", "heartbeat"]

    def test_line_torn_inside_utf8_sequence(self, tmp_path):
        path = tmp_path / "live.jsonl"
        intact = ("\n".join(self._journal_lines()) + "\n").encode("utf-8")
        torn = json.dumps({"type": "span", "name": "café"},
                          ensure_ascii=False).encode("utf-8")
        # Cut inside the 2-byte UTF-8 sequence of the final e-acute.
        path.write_bytes(intact + torn[:-2])
        events = read_journal(path)
        assert len(events) == 4, "torn UTF-8 tail should not eat the prefix"

    def test_types_filter(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text("\n".join(self._journal_lines()) + "\n",
                        encoding="utf-8")
        beats = read_journal(path, types={"heartbeat"})
        assert [e["seq"] for e in beats] == [1, 2]
        spans = read_journal(path, types={"span", "run_start"})
        assert [e["type"] for e in spans] == ["run_start", "span"]

    def test_heartbeat_interleaving_preserves_summary(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text("\n".join(self._journal_lines()) + "\n",
                        encoding="utf-8")
        summary = summarize_events(read_journal(path))
        assert summary.n_heartbeats == 2
        assert summary.n_spans == 1
