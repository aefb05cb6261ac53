"""Integration tests: repro.obs wired through the pipeline and executor.

The acceptance bar for the observability subsystem:

- a traced run produces a span tree in which the executor's shard spans
  nest under the ``stage:curate`` span — on BOTH the serial and the
  process backends (process workers trace in their own interpreter and
  the parent grafts their spans back in);
- the JSONL run journal replays through ``summarize_events`` and the
  Chrome ``trace_event`` export is valid JSON;
- instrumentation never perturbs results: curated records are
  byte-identical with tracing on and off;
- the ExecStats report derived from the span tree keeps the exact
  ``as_dict()`` key set the ``--stats --json`` contract promised.
"""

import json

import pytest

import repro.api as api
from repro import io
from repro.exec.stats import SHARD_SPAN, STAGE_PREFIX
from repro.obs import Observability, RunJournal, read_journal, \
    summarize_events, write_chrome_trace
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))

STATS_KEYS = {"workers", "backend", "n_shards", "stages",
              "total_seconds", "cache", "shards", "n_records",
              "degraded", "quarantined"}


def _record_bytes(records):
    return json.dumps([io.record_to_dict(r) for r in records],
                      sort_keys=True)


def _traced_run(backend, *, journal=None, workers=2):
    obs = Observability(journal=journal)
    run = api.run(
        scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
        workers=workers, backend=backend, observability=obs)
    return run.events, run.stats, obs


def _assert_shards_nest_under_curate(spans):
    by_id = {s.span_id: s for s in spans}
    curate = [s for s in spans if s.name == STAGE_PREFIX + "curate"]
    assert len(curate) == 1
    shards = [s for s in spans if s.name == SHARD_SPAN]
    assert shards, "no shard spans recorded"
    for shard in shards:
        node = shard
        while node.parent_id is not None:
            node = by_id[node.parent_id]
            if node.span_id == curate[0].span_id:
                break
        assert node.span_id == curate[0].span_id, (
            f"shard span {shard.attrs} does not nest under stage:curate")


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_shard_spans_nest_under_curate(backend):
    _, _, obs = _traced_run(backend)
    spans = obs.tracer.spans()
    _assert_shards_nest_under_curate(spans)
    roots = [s for s in spans if s.parent_id is None]
    assert [s.name for s in roots] == ["run"]
    stage_names = {s.name for s in spans if s.name.startswith(STAGE_PREFIX)}
    assert stage_names == {"stage:scenario", "stage:curate", "stage:kio",
                           "stage:merge", "stage:datasets"}


def test_process_shard_spans_carry_worker_pids():
    _, _, obs = _traced_run("process")
    spans = obs.tracer.spans()
    run_span = next(s for s in spans if s.name == "run")
    shard_workers = {s.worker for s in spans if s.name == SHARD_SPAN}
    parent_pid = run_span.worker.split("/")[0]
    assert any(w.split("/")[0] != parent_pid for w in shard_workers), (
        "process-backend shard spans should report worker pids")


def test_tracing_does_not_perturb_results():
    baseline = api.run(scenario_config=SMALL_CONFIG,
                       study_period=SMALL_PERIOD)
    traced, _, _ = _traced_run("process")
    assert _record_bytes(traced.curated_records) \
        == _record_bytes(baseline.curated_records)


def test_stats_derived_from_spans_keeps_contract():
    _, stats, obs = _traced_run("process")
    payload = stats.as_dict()
    assert set(payload) == STATS_KEYS
    assert set(payload["stages"]) == {"scenario", "curate", "kio",
                                      "merge", "datasets"}
    assert payload["backend"] == "process"
    assert payload["workers"] == 2
    assert payload["n_records"] > 0
    assert payload["n_shards"] == len(
        {s.attrs["shard"] for s in obs.tracer.spans()
         if s.name == SHARD_SPAN})


def test_journal_and_trace_exports(tmp_path):
    journal_path = tmp_path / "run.jsonl"
    _, _, obs = _traced_run("process", journal=RunJournal(journal_path))
    events = read_journal(journal_path)
    kinds = [e["type"] for e in events]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"
    span_events = [e for e in events if e["type"] == "span"]
    assert len(span_events) == len(obs.tracer.spans())

    summary = summarize_events(events)
    assert summary.n_spans == len(span_events)
    text = "\n".join(summary.rows())
    assert "stage:curate" in text

    trace_path = write_chrome_trace(obs.tracer.spans(),
                                    tmp_path / "trace.json")
    document = json.loads(trace_path.read_text(encoding="utf-8"))
    names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
    assert "stage:curate" in names and SHARD_SPAN in names


def test_hot_path_metrics_are_recorded():
    _, _, obs = _traced_run("process")
    counters = obs.metrics_snapshot()["counters"]
    assert counters.get("curation.records_finalized", 0) > 0
    assert counters.get("matching.window_comparisons", 0) > 0
    assert counters.get("kio.events_compiled", 0) > 0
    assert any(k.startswith("rng.substreams") for k in counters)
    assert any(k.startswith("curation.records_curated{country=")
               for k in counters)


class TestProfiledRuns:
    def test_profiling_does_not_perturb_results(self):
        baseline = api.run(scenario_config=SMALL_CONFIG,
                           study_period=SMALL_PERIOD)
        for backend in ("serial", "process"):
            profiled = api.run(
                scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                workers=1 if backend == "serial" else 2, backend=backend,
                observability=Observability(profile=True))
            assert _record_bytes(profiled.curated_records) \
                == _record_bytes(baseline.curated_records), backend

    def test_profiled_stats_payload_is_unchanged(self):
        plain = api.run(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD).stats
        profiled = api.run(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            observability=Observability(profile=True)).stats
        # Same keys, same deterministic values — profile readings must
        # not leak into the --stats --json contract.
        assert set(profiled.as_dict()) == set(plain.as_dict())
        assert profiled.as_dict()["n_records"] \
            == plain.as_dict()["n_records"]

    def test_stage_spans_carry_profile_readings(self):
        obs = Observability(profile=True)
        api.run(scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                observability=obs)
        stages = [s for s in obs.tracer.spans()
                  if s.name.startswith(STAGE_PREFIX)]
        assert stages
        for span in stages:
            assert "cpu_s" in span.attrs["profile"], span.name
            assert "rss_peak_kb" in span.attrs["profile"], span.name

    def test_process_worker_spans_profile_and_graft_back(self):
        obs = Observability(profile=True)
        api.run(scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                workers=2, backend="process", observability=obs)
        shards = [s for s in obs.tracer.spans() if s.name == SHARD_SPAN]
        assert shards
        for span in shards:
            assert span.attrs["profile"]["cpu_s"] >= 0.0

    def test_journal_streams_profile_and_health_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs = Observability(journal=RunJournal(path), profile=True)
        api.run(scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                observability=obs)
        events = read_journal(path)
        kinds = [e["type"] for e in events]
        assert "profile" in kinds
        health = [e for e in events if e["type"] == "health"]
        assert len(health) == 1
        assert health[0]["grade"] in ("pass", "warn", "fail")
        assert health[0]["stats"]["records.curated"] > 0


class TestRunHealth:
    def test_every_run_is_graded(self):
        run = api.run(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD)
        stats, health = run.stats, run.health
        assert health.grade in ("pass", "warn", "fail")
        assert health.stats["perf.total_seconds"] \
            == pytest.approx(stats.total_seconds)
        assert health.stats["records.curated"] == stats.n_records

    def test_custom_policy_replaces_the_default(self):
        from repro.obs import HealthCheck, HealthPolicy
        policy = HealthPolicy(checks=(
            HealthCheck(name="records.curated", target=1,
                        warn=1e9, fail=1e9),))
        health = api.run(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            health_policy=policy).health
        assert health.grade == "pass"
        assert len(health.results) == 1

    def test_canonical_run_statistics_shape(self):
        from repro.obs import run_statistics
        run = api.run(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD)
        statistics = run_statistics(run.events, run.stats)
        assert {"events.union_shutdowns", "events.spontaneous_outages",
                "countries.shutdown", "match.kio_matched_fraction",
                "records.curated", "resilience.quarantined",
                "perf.total_seconds", "cache.hit_rate"} <= set(statistics)
        assert all(isinstance(v, float) for v in statistics.values())


def test_cachestore_metrics_follow_cold_then_warm(tmp_path):
    cold = Observability()
    api.run(scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            cache_dir=tmp_path, observability=cold)
    cold_counters = cold.metrics_snapshot()["counters"]
    assert cold_counters.get("cachestore.misses{stage=curate}", 0) > 0
    assert cold_counters.get("cachestore.bytes_written{stage=curate}",
                             0) > 0

    warm = Observability()
    api.run(scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            cache_dir=tmp_path, observability=warm)
    warm_counters = warm.metrics_snapshot()["counters"]
    assert warm_counters.get("cachestore.hits{stage=curate}", 0) > 0
    assert warm_counters.get("cachestore.bytes_read{stage=curate}",
                             0) > 0
    assert warm_counters.get("cachestore.misses{stage=curate}", 0) == 0
