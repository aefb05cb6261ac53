"""Tests for the sharded execution engine (repro.exec).

The headline guarantees under test:

- a parallel run (any worker count, any backend) is byte-identical to a
  serial run;
- a warm content-addressed cache serves every shard and skips the
  observation+curation stage entirely (visible in ExecStats counters);
- changing any config that feeds a stage forces cache misses — the
  regression for the old seed-keyed cache, which silently reused records
  curated under different parameters.

The end-to-end tests run on a deliberately small scenario (one study
year, six-month period) so each cold curation costs seconds, not
minutes.
"""

import json

import pytest

import repro.api as api
from repro import io
from repro.errors import ConfigurationError
from repro.exec import (
    CACHE_VERSION,
    CacheStore,
    DEFAULT_N_SHARDS,
    ExecStats,
    ExecutorConfig,
    ShardPlan,
    ShardedCurationExecutor,
    fingerprint,
)
from repro.exec.workers import WorkerPool, _curate_shard, backend_label, \
    pool_size
from repro.ioda.curation import CurationConfig, CurationPipeline
from repro.ioda.platform import IODAPlatform
from repro.obs import Observability
from repro.obs.runtime import activate
from repro.timeutils.timestamps import HOUR, TimeRange, utc
from repro.world.scenario import ScenarioConfig, ScenarioGenerator

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))


def _record_bytes(records):
    """Canonical serialized form, for byte-identity assertions."""
    return json.dumps([io.record_to_dict(r) for r in records],
                      sort_keys=True)


def _curate(scenario, *, workers=1, backend="serial", cache=None,
            n_shards=None, curation_config=None, obs=None):
    """Curate under a session (``obs``, else a fresh one) and derive the
    execution report from it, as a pipeline run does."""
    obs = obs if obs is not None else Observability()
    executor = ShardedCurationExecutor(
        study_period=SMALL_PERIOD,
        curation_config=curation_config,
        cache=cache,
        config=ExecutorConfig(workers=workers, backend=backend,
                              n_shards=n_shards))
    with activate(obs), obs.span("stage:curate"):
        records = executor.curate(scenario)
    return records, ExecStats.from_obs(obs)


def _world_seed(platform, backend, offset):
    """A pool unit: where it ran, and a value read off its world."""
    return backend, platform.scenario.seed + offset


@pytest.fixture(scope="module")
def small_scenario():
    return ScenarioGenerator(SMALL_CONFIG).generate()


@pytest.fixture(scope="module")
def serial_result():
    """The serial-pipeline baseline every equivalence test compares to."""
    return api.run(scenario_config=SMALL_CONFIG,
                   study_period=SMALL_PERIOD).events


@pytest.fixture(scope="module")
def serial_records(serial_result):
    assert serial_result.curated_records
    return serial_result.curated_records


# -- sharding -------------------------------------------------------------------


class TestShardPlan:
    def test_round_robin_is_deterministic_and_complete(self):
        countries = ["SY", "IN", "ET", "IR", "MM", "SD", "DZ"]
        plan = ShardPlan.split(countries, 3)
        again = ShardPlan.split(list(reversed(countries)), 3)
        assert plan == again
        assert plan.countries == tuple(sorted(countries))
        assert sum(len(s.countries) for s in plan) == len(countries)

    def test_weighted_split_balances_heavy_hitters(self):
        countries = [f"C{i}" for i in range(8)]
        weights = {c: 100.0 if c == "C0" else 1.0 for c in countries}
        plan = ShardPlan.split(countries, 2, weights=weights)
        shard_of = {iso2: shard.index
                    for shard in plan for iso2 in shard.countries}
        heavy = shard_of["C0"]
        # LPT puts every light country on the other shard.
        assert all(shard_of[c] != heavy for c in countries if c != "C0")

    def test_empty_shards_dropped(self):
        plan = ShardPlan.split(["AA", "BB"], 8)
        assert len(plan) == 2
        assert plan.countries == ("AA", "BB")

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.split(["AA"], 0)


# -- fingerprinting and the cache store -----------------------------------------


class TestFingerprint:
    def test_stable_and_order_sensitive(self):
        assert fingerprint(1, "a") == fingerprint(1, "a")
        assert fingerprint(1, "a") != fingerprint("a", 1)

    def test_mapping_order_does_not_leak(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_dataclass_type_is_part_of_the_key(self):
        assert fingerprint(ScenarioConfig()) != fingerprint(CurationConfig())

    def test_config_field_change_changes_key(self):
        assert (fingerprint(CurationConfig())
                != fingerprint(CurationConfig(min_visible_bins=3)))


class TestCacheStore:
    def test_roundtrip(self, tmp_path):
        store = CacheStore(tmp_path)
        payload = {"records": [["SY", []]]}
        store.put("curate", payload, "key")
        assert store.get("curate", "key") == payload
        assert store.get("curate", "other-key") is None

    def test_version_in_filename(self, tmp_path):
        store = CacheStore(tmp_path)
        path = store.put("curate", {}, "key")
        assert f"-v{CACHE_VERSION}-" in path.name

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        path = store.put("curate", {"ok": True}, "key")
        path.write_text("{truncated", encoding="utf-8")
        assert store.get("curate", "key") is None

    def test_put_is_best_effort_when_root_unwritable(self, tmp_path):
        # A regular file where the cache root should be makes mkdir fail
        # even for root; the write must degrade to a no-op, not raise.
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        store = CacheStore(blocker / "cache")
        assert store.put("curate", {"ok": True}, "key") is None
        assert store.get("curate", "key") is None

    def test_distinct_configs_get_distinct_files(self, tmp_path):
        # Regression: the old seed-keyed cache reused records across
        # config changes because the config never entered the file name.
        store = CacheStore(tmp_path)
        default = store.path_for("curate", CurationConfig())
        changed = store.path_for("curate",
                                 CurationConfig(min_visible_bins=3))
        assert default != changed


# -- executor config ------------------------------------------------------------


class TestExecutorConfig:
    def test_defaults(self):
        config = ExecutorConfig()
        assert config.workers == 1
        assert config.backend == "process"
        assert config.n_shards is None

    @pytest.mark.parametrize("entry", ["ExecutorConfig", "run", "stream"])
    def test_thread_backend_rejected(self, entry):
        construct = {"ExecutorConfig": ExecutorConfig, "run": api.run,
                     "stream": api.stream}[entry]
        with pytest.raises(ConfigurationError, match="unknown backend"):
            construct(backend="thread")

    @pytest.mark.parametrize("backend,workers,units,size", [
        ("process", 1, 8, 0), ("process", 2, 1, 0), ("process", 2, 8, 2),
        ("process", 4, 3, 3), ("serial", 4, 8, 0)])
    def test_pool_only_when_two_workers_get_work(self, backend, workers,
                                                 units, size):
        assert pool_size(backend, workers, units) == size
        assert backend_label(backend, 1) == "serial"

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"backend": "mpi"},
        {"n_shards": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutorConfig(**kwargs)


class TestExecStats:
    def test_curate_skipped_semantics(self):
        stats = ExecStats(n_shards=8, cache_hits=8, cache_misses=0)
        assert stats.curate_skipped
        stats = ExecStats(n_shards=8, cache_hits=7, cache_misses=1)
        assert not stats.curate_skipped
        assert not ExecStats().curate_skipped

    def test_shard_skew(self):
        stats = ExecStats()
        assert stats.shard_skew == 0.0
        stats.record_shard(0, 1.0)
        stats.record_shard(1, 3.0)
        assert stats.shard_skew == pytest.approx(1.5)

    def test_as_dict_shape(self):
        stats = ExecStats(workers=4, backend="process", n_shards=8)
        stats.add_stage("curate", 1.25)
        report = stats.as_dict()
        assert set(report) == {"workers", "backend", "n_shards", "stages",
                               "total_seconds", "cache", "shards",
                               "n_records", "degraded", "quarantined"}
        assert report["stages"] == {"curate": 1.25}
        assert report["cache"] == {"hits": 0, "misses": 0,
                                   "curate_skipped": True}
        assert report["degraded"] is False
        assert report["quarantined"] == []

    def test_degraded_run_reported(self):
        stats = ExecStats(degraded=True, quarantined=("IR", "SY"))
        report = stats.as_dict()
        assert report["degraded"] is True
        assert report["quarantined"] == ["IR", "SY"]
        assert any("quarantined: IR, SY" in row for row in stats.rows())


# -- serial/parallel equivalence ------------------------------------------------


class TestEquivalence:
    def test_process_pool_is_byte_identical_to_serial(self, small_scenario,
                                                      serial_records):
        parallel, stats = _curate(small_scenario, workers=2,
                                  backend="process")
        assert _record_bytes(parallel) == _record_bytes(serial_records)
        assert stats.backend == "process"
        assert stats.n_shards == DEFAULT_N_SHARDS
        assert len(stats.shard_seconds) == stats.n_shards

    def test_unobserved_process_pool(self, small_scenario):
        """With no session active, pooled units run unreported."""
        platform = IODAPlatform(small_scenario)
        config = ExecutorConfig(workers=2, backend="process")
        with WorkerPool(config, platform, 2) as pool:
            results = list(pool.map(_world_seed, [(0,), (1,)]))
        assert results == [("process", 7), ("process", 8)]

    @pytest.mark.parametrize("path", ["batch", "stream"])
    def test_process_pool_builds_world_once_per_worker(self, small_scenario,
                                                       serial_records, path):
        """Observed process workers build one world each, whether they
        curate batch shards or adjudicate a stream's advances."""
        obs = Observability()
        if path == "batch":
            parallel, _ = _curate(small_scenario, workers=2,
                                  backend="process", obs=obs)
            assert _record_bytes(parallel) == _record_bytes(serial_records)
        else:
            session = api.stream(
                scenario_config=SMALL_CONFIG,
                study_period=TimeRange(utc(2018, 1, 1), utc(2018, 5, 1)),
                workers=2, backend="process", observability=obs)
            for _ in session.replay(6 * HOUR):
                pass
            assert session.finalize().curated_records
        builds = {key: value
                  for key, value in obs.metrics.snapshot()["gauges"].items()
                  if key.startswith("exec.worker.world_builds")}
        assert builds, "process workers should report world-build gauges"
        assert 1 <= len(builds) <= 2
        assert all(value == 1.0 for value in builds.values()), builds

    def test_shard_count_does_not_change_results(self, small_scenario,
                                                 serial_records):
        records, stats = _curate(small_scenario, n_shards=3)
        assert stats.n_shards == 3
        assert _record_bytes(records) == _record_bytes(serial_records)

    def test_record_ids_are_sequential(self, serial_records):
        assert sorted(r.record_id for r in serial_records) \
            == list(range(1, len(serial_records) + 1))

    def test_shard_restricted_windows_match_full_map(self, small_scenario):
        """A shard given only its own windows curates identical records."""
        platform = IODAPlatform(small_scenario)
        pipeline = CurationPipeline(platform, CurationConfig())
        windows = pipeline.country_windows(SMALL_PERIOD)
        iso2 = sorted(windows)[0]
        restricted = _curate_shard(
            small_scenario, CurationConfig(),
            SMALL_PERIOD, (iso2,), windows={iso2: windows[iso2]},
            platform=platform)
        recomputed = _curate_shard(
            small_scenario, CurationConfig(),
            SMALL_PERIOD, (iso2,), platform=platform)
        assert restricted == recomputed
        (shard_iso2, records), = restricted[0]
        assert shard_iso2 == iso2


# -- caching --------------------------------------------------------------------


class TestStageCache:
    def test_cold_warm_and_config_invalidation(self, tmp_path,
                                               small_scenario,
                                               serial_records):
        cache = CacheStore(tmp_path)

        cold, cold_stats = _curate(small_scenario, workers=2,
                                   backend="process", cache=cache)
        assert cold_stats.cache_hits == 0
        assert cold_stats.cache_misses == cold_stats.n_shards
        assert not cold_stats.curate_skipped
        assert _record_bytes(cold) == _record_bytes(serial_records)

        warm, warm_stats = _curate(small_scenario, workers=2,
                                   backend="process", cache=cache)
        assert warm_stats.cache_hits == warm_stats.n_shards
        assert warm_stats.cache_misses == 0
        assert warm_stats.curate_skipped
        assert not warm_stats.shard_seconds
        assert _record_bytes(warm) == _record_bytes(serial_records)

        # Regression: a changed curation config must miss, never be
        # served records curated under the old parameters.
        _, changed_stats = _curate(
            small_scenario, cache=cache,
            curation_config=CurationConfig(min_visible_bins=3))
        assert changed_stats.cache_hits == 0
        assert changed_stats.cache_misses == changed_stats.n_shards

    def test_warm_cache_survives_pool_resize(self, tmp_path,
                                             small_scenario,
                                             serial_records):
        cache = CacheStore(tmp_path)
        _curate(small_scenario, workers=1, cache=cache)
        resized, stats = _curate(small_scenario, workers=4,
                                 backend="process", cache=cache)
        assert stats.curate_skipped
        assert _record_bytes(resized) == _record_bytes(serial_records)


# -- pipeline-level integration -------------------------------------------------


def _label_rows(result):
    return [(e.record.record_id, e.label, e.via_kio_match, e.via_cause,
             e.matched_kio_ids) for e in result.merged.labeled]


class TestPipelineIntegration:
    def test_parallel_pipeline_matches_serial(self, serial_result,
                                              serial_records):
        result = api.run(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            workers=4, backend="process")
        assert _record_bytes(result.curated_records) \
            == _record_bytes(serial_records)
        assert _label_rows(result) == _label_rows(serial_result)
        assert result.stats is not None
        assert [s.name for s in result.stats.stages] \
            == ["scenario", "curate", "kio", "merge", "datasets"]
