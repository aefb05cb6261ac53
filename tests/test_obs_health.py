"""Unit tests for repro.obs profiling, health checks, and perf baselines."""

import json
import tracemalloc

import pytest

from repro.obs import (
    HealthCheck,
    HealthPolicy,
    HealthReport,
    Observability,
    PerfBaseline,
    ProfileConfig,
    SpanProfiler,
    Tracer,
    activate,
    compare_baselines,
    default_policy,
    load_baseline,
    read_journal,
    save_baseline,
    trajectory_rows,
)
from repro.obs.health import CheckResult


# -- profiling ------------------------------------------------------------------


class TestSpanProfiler:
    def test_config_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            ProfileConfig(tracemalloc=True, tracemalloc_depth=0)

    def test_begin_end_reports_cpu_and_rss(self):
        profiler = SpanProfiler().install()
        readings = profiler.begin()
        sum(i * i for i in range(20_000))  # burn some CPU
        profile = profiler.end(readings)
        profiler.uninstall()
        assert profile["cpu_s"] >= 0.0
        assert profile["rss_peak_kb"] >= 0.0
        assert "alloc_net_kb" not in profile

    def test_tracemalloc_sampling_is_scoped_to_install(self):
        assert not tracemalloc.is_tracing()
        profiler = SpanProfiler(
            ProfileConfig(tracemalloc=True, tracemalloc_depth=1)).install()
        try:
            assert tracemalloc.is_tracing()
            readings = profiler.begin()
            blob = [bytes(1024) for _ in range(64)]
            profile = profiler.end(readings)
            assert profile["alloc_net_kb"] > 0
            assert profile["alloc_peak_kb"] >= profile["alloc_net_kb"]
            del blob
        finally:
            profiler.uninstall()
        assert not tracemalloc.is_tracing()

    def test_nested_spans_report_their_own_peaks(self):
        """Each span's peak counts from its own open: a span opened
        below an earlier, freed peak still reads a peak of at least its
        net allocation, and an enclosing span's peak covers what its
        children allocated and freed."""
        profiler = SpanProfiler(
            ProfileConfig(tracemalloc=True, cpu=False, rss=False)).install()
        try:
            outer = profiler.begin()
            spike = bytes(512 * 1024)
            del spike  # the process peak now sits 512 KiB above us
            inner = profiler.begin()
            kept = [bytes(1024) for _ in range(64)]
            inner_profile = profiler.end(inner)
            sibling = profiler.begin()
            burst = bytes(2048 * 1024)
            del burst
            sibling_profile = profiler.end(sibling)
            outer_profile = profiler.end(outer)
            del kept
        finally:
            profiler.uninstall()
        assert inner_profile["alloc_net_kb"] >= 64
        assert inner_profile["alloc_peak_kb"] \
            >= inner_profile["alloc_net_kb"]
        assert inner_profile["alloc_peak_kb"] < 512
        assert sibling_profile["alloc_peak_kb"] >= 2048
        assert sibling_profile["alloc_net_kb"] < 64
        assert outer_profile["alloc_peak_kb"] >= 2048 + 64
        assert outer_profile["alloc_net_kb"] >= 64
        assert profiler._open_allocs() == []

    def test_uninstall_is_idempotent_and_respects_foreign_tracing(self):
        tracemalloc.start()
        try:
            profiler = SpanProfiler(
                ProfileConfig(tracemalloc=True)).install()
            profiler.uninstall()
            profiler.uninstall()
            # The profiler didn't start tracing, so it must not stop it.
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_unprofiled_tracer_records_no_profile_attr(self):
        tracer = Tracer()
        with tracer.span("plain"):
            pass
        assert "profile" not in tracer.spans()[0].attrs

    def test_profiled_session_attaches_readings_and_journals_them(
            self, tmp_path):
        path = tmp_path / "run.jsonl"
        obs = Observability(journal=path, profile=True)
        with activate(obs):
            with obs.span("work"):
                sum(range(10_000))
        obs.finish()
        record = obs.tracer.spans()[0]
        assert set(record.attrs["profile"]) == {"cpu_s", "rss_peak_kb"}
        events = read_journal(path)
        profile_events = [e for e in events if e["type"] == "profile"]
        assert len(profile_events) == 1
        assert profile_events[0]["name"] == "work"
        assert profile_events[0]["profile"] == record.attrs["profile"]

    def test_finish_uninstalls_the_profiler(self):
        obs = Observability(
            profile=ProfileConfig(tracemalloc=True, tracemalloc_depth=1))
        assert tracemalloc.is_tracing()
        obs.finish()
        assert not tracemalloc.is_tracing()


# -- health checks --------------------------------------------------------------


class TestHealthCheck:
    def test_relative_grading_bands(self):
        check = HealthCheck(name="x", target=100, warn=0.1, fail=0.5)
        assert check.grade(105).grade == "pass"
        assert check.grade(130).grade == "warn"
        assert check.grade(10).grade == "fail"

    def test_ceiling_only_penalizes_overshoot(self):
        check = HealthCheck(name="x", target=10, warn=0, fail=5,
                            mode="ceiling")
        assert check.grade(3).grade == "pass"
        assert check.grade(12).grade == "warn"
        assert check.grade(16).grade == "fail"

    def test_missing_value_warns(self):
        result = HealthCheck(name="x", target=1).grade(None)
        assert result.grade == "warn"
        assert result.value is None

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthCheck(name="x", mode="bogus")
        with pytest.raises(ValueError):  # removed with its last check
            HealthCheck(name="x", mode="info")
        with pytest.raises(ValueError):
            HealthCheck(name="x", warn=0.5, fail=0.1)

    def test_result_roundtrip(self):
        result = HealthCheck(name="x", target=3, warn=0.1,
                             fail=0.2, note="n").grade(3.1)
        assert CheckResult.from_dict(result.as_dict()) == result


class TestHealthPolicy:
    def test_worst_grade_wins(self):
        policy = HealthPolicy(checks=(
            HealthCheck(name="a", target=10, warn=0.1, fail=0.5),
            HealthCheck(name="b", target=10, warn=0.1, fail=0.5),
        ))
        report = policy.evaluate({"a": 10, "b": 2})
        assert report.grade == "fail"
        assert [r.grade for r in report.results] == ["pass", "fail"]
        assert len(report.failed) == 1 and not report.warned

    def test_empty_policy_passes(self):
        assert HealthPolicy().evaluate({}).grade == "pass"

    def test_report_roundtrips_through_the_journal_event(self):
        policy = HealthPolicy(checks=(
            HealthCheck(name="a", target=10, warn=0.1, fail=0.5),))
        report = policy.evaluate({"a": 9.5, "extra": 1.0})
        event = report.as_event()
        assert event["type"] == "health"
        replayed = HealthReport.from_dict(
            json.loads(json.dumps(event)))
        assert replayed.grade == report.grade
        assert replayed.stats == {"a": 9.5, "extra": 1.0}
        assert [r.as_dict() for r in replayed.results] \
            == [r.as_dict() for r in report.results]

    def test_rows_render_every_check(self):
        report = default_policy().evaluate({})
        text = "\n".join(report.rows())
        assert "events.union_shutdowns" in text
        assert "resilience.quarantined" in text

    def test_default_policy_covers_the_paper_headlines(self):
        names = {c.name for c in default_policy().checks}
        assert {"events.union_shutdowns", "events.spontaneous_outages",
                "countries.shutdown", "countries.outage",
                "match.kio_matched_fraction",
                "resilience.quarantined"} <= names

    def test_default_policy_grades_no_wall_time(self):
        # Wall time is the benchmark harness's to judge, and the shard
        # cache changes cost, not results.
        names = [c.name for c in default_policy().checks]
        assert not [n for n in names
                    if n.startswith(("perf.", "cache."))], names


# -- perf baselines -------------------------------------------------------------


def _statistics(total=10.0, curate=8.0, records=278.0, shutdowns=53.0):
    return {
        "events.union_shutdowns": shutdowns,
        "records.curated": records,
        "perf.total_seconds": total,
        "perf.stage_seconds.curate": curate,
        "cache.hit_rate": 1.0,
    }


def _baseline(name="base", **kwargs):
    return PerfBaseline.capture(
        name=name, config={"seed": 2023, "backend": "serial"},
        statistics=_statistics(**kwargs), health_grade="pass")


class TestPerfBaseline:
    def test_capture_splits_perf_from_fidelity(self):
        baseline = _baseline()
        assert set(baseline.fidelity) == {"events.union_shutdowns",
                                          "records.curated"}
        assert set(baseline.perf) == {"perf.total_seconds",
                                      "perf.stage_seconds.curate",
                                      "cache.hit_rate"}

    def test_save_load_roundtrip(self, tmp_path):
        baseline = _baseline()
        path = save_baseline(baseline, tmp_path / "base.json")
        loaded = load_baseline(path)
        assert loaded.as_dict() == baseline.as_dict()
        assert loaded.name == "base"
        assert loaded.version == 1

    def test_identical_runs_compare_ok(self):
        comparison = compare_baselines(_baseline("now"), _baseline())
        assert comparison.ok
        assert not comparison.regressions

    def test_perf_is_trend_data_while_fidelity_and_config_gate(self):
        # Wall time is the benchmark harness's to judge: a 100x slower
        # or a missing perf.* value still compares OK ...
        slow = compare_baselines(
            _baseline("now", total=1000.0, curate=800.0), _baseline())
        assert slow.ok
        assert {e.status for e in slow.entries
                if e.name.startswith("perf.")} == {"ok"}
        stats = _statistics()
        del stats["perf.stage_seconds.curate"]
        missing = compare_baselines(
            PerfBaseline.capture(
                name="now", config={"seed": 2023, "backend": "serial"},
                statistics=stats), _baseline())
        assert missing.ok
        # ... while fidelity and config drift still regress, however
        # fast the run was.
        drift = compare_baselines(
            _baseline("now", total=0.1, shutdowns=52.0), _baseline())
        assert [e.name for e in drift.regressions] \
            == ["events.union_shutdowns"]
        other = PerfBaseline.capture(
            name="now", config={"seed": 7, "backend": "serial"},
            statistics=_statistics(total=1000.0))
        assert [e.name for e in compare_baselines(
            other, _baseline()).regressions] == ["config.seed"]

    def test_fidelity_drift_always_regresses(self):
        comparison = compare_baselines(
            _baseline("now", shutdowns=52.0), _baseline())
        assert not comparison.ok
        assert any(e.kind == "fidelity" for e in comparison.regressions)

    def test_config_mismatch_regresses(self):
        other = PerfBaseline.capture(
            name="now", config={"seed": 7, "backend": "serial"},
            statistics=_statistics())
        comparison = compare_baselines(other, _baseline())
        assert any(e.name == "config.seed" for e in comparison.regressions)

    def test_config_mismatch_rows_show_both_values(self):
        other = PerfBaseline.capture(
            name="now", config={"seed": 7, "backend": "process"},
            statistics=_statistics())
        rows = {row.split()[1]: row.split()[2:]
                for row in compare_baselines(other, _baseline()).rows()
                if "[regression]" in row}
        assert rows["config.seed"] == ["2023", "->", "7"]
        assert rows["config.backend"] == ["serial", "->", "process"]

    def test_cache_counters_are_trend_only(self):
        comparison = compare_baselines(
            _baseline("now"), _baseline())
        cache = [e for e in comparison.entries
                 if e.name == "cache.hit_rate"]
        assert cache and cache[0].status == "ok"

    def test_comparison_rows_render(self):
        rows = compare_baselines(_baseline("now"), _baseline()).rows()
        assert "OK" in rows[0]
        assert any("perf.total_seconds" in row for row in rows)

    def test_trajectory_rows(self):
        rows = trajectory_rows([_baseline("a"), _baseline("b", total=5.0)])
        assert "name" in rows[0]
        assert any(row.startswith("a ") for row in rows)
        assert any(row.startswith("b ") for row in rows)
        assert trajectory_rows([]) == ["no baselines recorded"]
