"""Smoke tests for the stable repro.api facade."""

import pytest

import repro
import repro.api as api
from repro.exec import ExecStats
from repro.obs import HealthReport
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=11, years=(2019,))
SMALL_PERIOD = TimeRange(utc(2019, 1, 1), utc(2019, 5, 1))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("api-cache")


@pytest.fixture(scope="module")
def run_output(cache_dir):
    return api.run(
        scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
        workers=2, cache_dir=cache_dir)


class TestRun:
    def test_returns_run_result(self, run_output):
        assert isinstance(run_output, api.RunResult)
        assert isinstance(run_output.events, api.PipelineResult)
        assert run_output.curated_records
        assert run_output.kio_events
        assert run_output.merged.labeled
        assert run_output.journal_path is None

    def test_passthroughs_mirror_events(self, run_output):
        assert run_output.curated_records \
            is run_output.events.curated_records
        assert run_output.kio_events is run_output.events.kio_events
        assert run_output.merged is run_output.events.merged
        assert run_output.scenario is run_output.events.scenario

    def test_stats_report_cold_run(self, run_output):
        stats = run_output.stats
        assert isinstance(stats, ExecStats)
        assert stats.workers == 2
        assert stats.cache_misses == stats.n_shards
        assert stats.n_records > 0

    def test_health_scorecard_attached(self, run_output):
        assert isinstance(run_output.health, HealthReport)
        assert run_output.health.grade in ("pass", "warn", "fail")

    def test_warm_rerun_skips_curation(self, run_output, cache_dir):
        result = api.run(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            workers=2, cache_dir=cache_dir)
        assert result.stats.curate_skipped
        assert result.stats.cache_hits == result.stats.n_shards
        assert [r.record_id for r in result.curated_records] \
            == [r.record_id for r in run_output.curated_records]

    def test_journal_shorthand(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        result = api.run(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            observability=api.Observability(journal=journal))
        assert result.journal_path == journal
        assert journal.exists()
        assert api.read_journal(journal)

    @pytest.mark.parametrize("entry", ["run", "stream"])
    def test_runs_dir_files_a_session_without_journal(self, tmp_path,
                                                      cache_dir, entry):
        """A caller's journal-less session still gets the registry's
        journal, attached before the run starts."""
        runs = tmp_path / "runs"
        obs = api.Observability()
        if entry == "run":
            result = api.run(
                scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                cache_dir=cache_dir, observability=obs, runs_dir=runs)
        else:
            result = api.stream(
                scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                observability=obs, runs_dir=runs).finalize()
        assert result.run_id is not None
        assert result.journal_path.parent == result.run_dir
        assert not list(runs.glob("pending-*"))
        record = api.RunRegistry(runs).get(result.run_id)
        assert record.journal_path == result.journal_path
        spans = api.read_journal(result.journal_path, types={"span"})
        assert any(e["name"] == "stage:curate" for e in spans)

    def test_facade_is_importable_from_package_root(self):
        assert repro.api.run is api.run


class TestRemovedShims:
    def test_tuple_shims_are_gone(self):
        # Deprecated in PR 6, removed with the api.stream redesign: the
        # RunResult is the only return shape.
        assert not hasattr(api, "run_with_stats")
        assert not hasattr(api, "run_with_health")
        assert "run_with_stats" not in api.__all__
        assert "run_with_health" not in api.__all__

    def test_stream_is_exported(self):
        assert "stream" in api.__all__
        assert "StreamSession" in api.__all__


class TestClient:
    def test_client_serves_cursor_paginated_feed(self, run_output):
        client = api.client(run_output)
        seen = []
        cursor = None
        while True:
            page = client.get_events(limit=25, cursor=cursor)
            seen.extend(page.events)
            if page.cursor is None:
                break
            cursor = page.cursor
        assert len(seen) == len(run_output.curated_records)

    def test_client_accepts_bare_pipeline_result(self, run_output):
        client = api.client(run_output.events)
        page = client.get_events(limit=5)
        assert page.total == len(run_output.curated_records)

    def test_records_override(self, run_output):
        subset = run_output.curated_records[:3]
        client = api.client(run_output, records=subset)
        page = client.get_events(limit=10)
        assert page.total == len(subset)


class TestRecordIO:
    def test_dump_load_roundtrip(self, run_output, tmp_path):
        path = tmp_path / "records.json"
        api.dump_records(run_output.curated_records, path)
        loaded = api.load_records(path)
        assert loaded == list(run_output.curated_records)
