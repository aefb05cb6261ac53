"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import CACHE_DIR


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 2023
        assert args.command == "run"

    def test_signals_arguments(self):
        args = build_parser().parse_args(
            ["signals", "SY", "2018-06-13", "2018-06-14"])
        assert args.country == "SY"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_executor_flags(self):
        args = build_parser().parse_args(
            ["--workers", "4", "--backend", "process", "--shards", "3",
             "run", "--stats", "--json"])
        assert (args.workers, args.backend, args.shards) == (4, "process", 3)
        assert args.stats and args.json

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "mpi", "run"])

    def test_invalid_executor_values_exit_cleanly(self, capsys):
        assert main(["--workers", "0", "run"]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert main(["--shards", "0", "run"]) == 2
        assert "n_shards must be >= 1" in capsys.readouterr().err

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["run", "--trace", "t.json", "--journal", "r.jsonl",
             "--metrics-json", "m.json"])
        assert (str(args.trace), str(args.journal),
                str(args.metrics_json)) == ("t.json", "r.jsonl", "m.json")

    def test_trace_summarize_arguments(self):
        args = build_parser().parse_args(
            ["trace", "summarize", "RUN.jsonl", "--top", "3"])
        assert args.command == "trace"
        assert args.trace_command == "summarize"
        assert (str(args.journal), args.top) == ("RUN.jsonl", 3)

    def test_trace_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_profile_and_health_flags(self):
        args = build_parser().parse_args(
            ["run", "--profile", "--health"])
        assert args.profile and args.health
        assert args.profile_alloc is None
        args = build_parser().parse_args(
            ["run", "--profile-alloc", "5"])
        assert args.profile_alloc == 5

    def test_stream_arguments(self):
        args = build_parser().parse_args(
            ["stream", "--step", "30d", "--events", "--health",
             "--run-name", "live"])
        assert args.command == "stream"
        assert args.step == "30d"
        assert args.events and args.health
        assert args.run_name == "live"

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.step == "7d"
        assert not args.events

    def test_health_command_arguments(self):
        args = build_parser().parse_args(
            ["health", "RUN.jsonl", "--json", "--strict"])
        assert args.command == "health"
        assert str(args.journal) == "RUN.jsonl"
        assert args.json and args.strict

    def test_perf_subcommands(self):
        args = build_parser().parse_args(["perf", "record", "main"])
        assert (args.perf_command, args.name) == ("record", "main")
        args = build_parser().parse_args(["perf", "compare", "main"])
        assert (args.perf_command, args.baseline) == ("compare", "main")
        # Wall time is not banded here, so there is no band to widen.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["perf", "compare", "main", "--tolerance", "10"])
        args = build_parser().parse_args(
            ["perf", "report", "--dir", "b"])
        assert args.perf_command == "report"
        assert str(args.baseline_dir) == "b"

    def test_perf_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])

    def test_resilience_flags(self):
        args = build_parser().parse_args(
            ["run", "--inject-faults", "fail_first=2;seed=5",
             "--max-retries", "5", "--fail-fast"])
        assert args.inject_faults == "fail_first=2;seed=5"
        assert args.max_retries == 5
        assert args.fail_fast

    def test_degrade_is_the_default_failure_mode(self):
        args = build_parser().parse_args(["run", "--degrade"])
        assert not args.fail_fast
        assert not build_parser().parse_args(["run"]).fail_fast

    def test_fail_fast_and_degrade_conflict(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fail-fast", "--degrade"])

    def test_bad_fault_spec_exits_cleanly(self, capsys):
        assert main(["run", "--inject-faults", "frequency=0.5"]) == 2
        assert "fault clause" in capsys.readouterr().err


class TestCommands:
    def test_signals_command(self, capsys):
        status = main(["--cache-dir", str(CACHE_DIR), "signals", "SY",
                       "2018-06-13 12:00", "2018-06-13 18:00"])
        assert status == 0
        output = capsys.readouterr().out
        assert "Syria" in output
        assert "BGP" in output and "Telescope" in output

    def test_signals_accepts_country_name(self, capsys):
        status = main(["--cache-dir", str(CACHE_DIR), "signals",
                       "Ivory Coast", "2018-06-13", "2018-06-14"])
        assert status == 0
        assert "CI" in capsys.readouterr().out

    def test_run_command_uses_cache(self, capsys, pipeline_result):
        status = main(["--cache-dir", str(CACHE_DIR), "run"])
        assert status == 0
        output = capsys.readouterr().out
        assert "Table 2" in output
        assert "IODA shutdowns" in output

    def test_run_stats_json_is_machine_readable(self, capsys,
                                                pipeline_result):
        import json
        status = main(["--cache-dir", str(CACHE_DIR), "--workers", "2",
                       "run", "--stats", "--json"])
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["workers"] == 2
        assert report["cache"]["hits"] == report["n_shards"]
        assert report["cache"]["curate_skipped"]

    def test_export_command(self, capsys, tmp_path, pipeline_result):
        status = main(["--cache-dir", str(CACHE_DIR), "export",
                       "--output-dir", str(tmp_path)])
        assert status == 0
        assert (tmp_path / "ioda_outage_records.json").exists()
        assert (tmp_path / "kio_events.json").exists()

    def test_report_command(self, capsys, tmp_path, pipeline_result):
        output = tmp_path / "EXPERIMENTS.md"
        status = main(["--cache-dir", str(CACHE_DIR), "report",
                       "--output", str(output)])
        assert status == 0
        text = output.read_text(encoding="utf-8")
        assert "paper vs reproduction" in text
        assert "| Table 4 |" in text

    def test_figures_command(self, capsys, tmp_path, pipeline_result):
        status = main(["--cache-dir", str(CACHE_DIR), "figures",
                       "--output-dir", str(tmp_path)])
        assert status == 0
        assert (tmp_path / "fig10_duration_hours.csv").exists()
        assert len(list(tmp_path.glob("*.csv"))) >= 18

    def test_triage_command(self, capsys, pipeline_result):
        status = main(["--cache-dir", str(CACHE_DIR), "triage",
                       "--limit", "3"])
        assert status == 0
        output = capsys.readouterr().out
        assert "autocracy?" in output


class TestObservability:
    def test_run_writes_trace_journal_and_metrics(self, capsys, tmp_path,
                                                  pipeline_result):
        import json
        trace = tmp_path / "trace.json"
        journal = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        status = main(["--cache-dir", str(CACHE_DIR), "run",
                       "--trace", str(trace), "--journal", str(journal),
                       "--metrics-json", str(metrics)])
        assert status == 0
        output = capsys.readouterr().out
        assert f"wrote {trace}" in output
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert any(e["name"] == "stage:curate"
                   for e in document["traceEvents"])
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert snapshot["counters"]
        first = json.loads(
            journal.read_text(encoding="utf-8").splitlines()[0])
        assert first["type"] == "run_start"

    def test_stats_json_stays_machine_readable_with_exports(
            self, capsys, tmp_path, pipeline_result):
        import json
        metrics = tmp_path / "metrics.json"
        status = main(["--cache-dir", str(CACHE_DIR), "run", "--stats",
                       "--json", "--metrics-json", str(metrics)])
        assert status == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # stdout is still pure JSON
        assert set(report) >= {"stages", "cache", "shards"}
        assert f"wrote {metrics}" in captured.err

    def test_trace_summarize_replays_a_journal(self, capsys, tmp_path,
                                               pipeline_result):
        # A private, empty cache dir makes the curate stage do its real
        # work.  On the warm shared cache it only reads cached shards
        # (~50 ms), close enough to kio.compile that its place among
        # the slowest five spans came down to scheduling noise.
        journal = tmp_path / "run.jsonl"
        assert main(["--cache-dir", str(tmp_path / "cache"), "run",
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        status = main(["trace", "summarize", str(journal), "--top", "5"])
        assert status == 0
        output = capsys.readouterr().out
        assert "slowest spans" in output
        assert "stage:curate" in output

    def test_trace_summarize_missing_journal_exits_2(self, capsys,
                                                     tmp_path):
        status = main(["trace", "summarize",
                       str(tmp_path / "nope.jsonl")])
        assert status == 2
        assert "no such journal" in capsys.readouterr().err

    def test_trace_summarize_empty_journal_exits_2(self, capsys,
                                                   tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["trace", "summarize", str(empty)]) == 2
        assert "empty or unreadable" in capsys.readouterr().err


class TestResilienceFlags:
    """CLI resilience plumbing on the small test scenario.

    ``repro run`` always covers the full study period, which is too
    slow for chaos runs that must bypass the cache — so these tests
    shrink the run by patching the CLI's pipeline construction, and
    exercise the real flag parsing, resilience wiring, and exit-status
    handling around it.
    """

    @pytest.fixture()
    def small_cli(self, monkeypatch):
        from repro.timeutils.timestamps import TimeRange, utc
        from repro.world.scenario import ScenarioConfig

        monkeypatch.setattr(
            "repro.cli.ScenarioConfig",
            lambda seed: ScenarioConfig(seed=seed, years=(2018,)))
        monkeypatch.setattr(
            "repro.cli.STUDY_PERIOD",
            TimeRange(utc(2018, 1, 1), utc(2018, 7, 1)))

    def test_chaos_run_recovers_and_reports_clean(self, capsys, tmp_path,
                                                  small_cli):
        import json
        status = main(["--seed", "7", "--cache-dir", str(tmp_path), "run",
                       "--stats", "--json",
                       "--inject-faults", "fail_first=1;seed=3"])
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degraded"] is False
        assert report["quarantined"] == []
        # The fault plan bypasses the cache in both directions.
        assert report["cache"]["hits"] == 0
        assert not list(tmp_path.glob("curate-*.json"))

    def test_permanent_fault_degrades_run(self, capsys, tmp_path,
                                          small_cli):
        import json
        status = main(["--seed", "7", "--cache-dir", str(tmp_path), "run",
                       "--stats", "--json",
                       "--inject-faults", "permanent=SY", "--degrade"])
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degraded"] is True
        assert report["quarantined"] == ["SY"]

    def test_fail_fast_exits_2(self, capsys, tmp_path, small_cli):
        status = main(["--seed", "7", "--cache-dir", str(tmp_path), "run",
                       "--inject-faults", "permanent=SY", "--fail-fast"])
        assert status == 2
        assert "repro: error:" in capsys.readouterr().err


class TestBackendFlag:
    """The ``--backend`` surface: ``serial`` and ``process`` only, and
    ``--workers 2`` alone runs the process pool (small scenario, shrunk
    the same way :class:`TestResilienceFlags` does)."""

    @pytest.fixture()
    def small_cli(self, monkeypatch):
        from repro.timeutils.timestamps import TimeRange, utc
        from repro.world.scenario import ScenarioConfig

        monkeypatch.setattr(
            "repro.cli.ScenarioConfig",
            lambda seed: ScenarioConfig(seed=seed, years=(2018,)))
        monkeypatch.setattr(
            "repro.cli.STUDY_PERIOD",
            TimeRange(utc(2018, 1, 1), utc(2018, 5, 1)))

    def test_thread_backend_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--backend", "thread", "run"])
        assert exc.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    def test_workers_without_backend_run_the_process_pool(
            self, capsys, tmp_path, small_cli):
        import json
        import os

        from repro.obs import read_journal

        journal = tmp_path / "run.jsonl"
        status = main(["--seed", "7", "--cache-dir", str(tmp_path),
                       "--workers", "2", "run", "--stats", "--json",
                       "--journal", str(journal)])
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["backend"] == "process"
        shards = [e for e in read_journal(journal, types={"span"})
                  if e["name"] == "exec.shard"]
        assert len(shards) == report["n_shards"]
        pids = {e["worker"].split("/")[0] for e in shards}
        assert str(os.getpid()) not in pids
        assert all(e["attrs"]["backend"] == "process" for e in shards)


class TestHealthAndPerf:
    """The health/perf commands on the small test scenario.

    Like :class:`TestResilienceFlags`, these shrink the run by patching
    the CLI's pipeline construction and exercise the real wiring and
    exit-status contracts around it.
    """

    @pytest.fixture()
    def small_cli(self, monkeypatch):
        from repro.timeutils.timestamps import TimeRange, utc
        from repro.world.scenario import ScenarioConfig

        monkeypatch.setattr(
            "repro.cli.ScenarioConfig",
            lambda seed: ScenarioConfig(seed=seed, years=(2018,)))
        monkeypatch.setattr(
            "repro.cli.STUDY_PERIOD",
            TimeRange(utc(2018, 1, 1), utc(2018, 7, 1)))

    def test_run_health_renders_the_scorecard(self, capsys, tmp_path,
                                              small_cli):
        status = main(["--seed", "7", "--cache-dir", str(tmp_path), "run",
                       "--health"])
        assert status == 0
        output = capsys.readouterr().out
        assert "== Health ==" in output
        assert "events.union_shutdowns" in output

    def test_stats_json_embeds_health_only_on_request(self, capsys,
                                                      tmp_path, small_cli):
        import json
        assert main(["--seed", "7", "--cache-dir", str(tmp_path), "run",
                     "--stats", "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert "health" not in plain
        assert main(["--seed", "7", "--cache-dir", str(tmp_path), "run",
                     "--stats", "--json", "--health"]) == 0
        enriched = json.loads(capsys.readouterr().out)
        assert enriched["health"]["grade"] in ("pass", "warn", "fail")
        assert set(enriched) == set(plain) | {"health"}

    def test_health_command_replays_the_journal(self, capsys, tmp_path,
                                                small_cli):
        import json
        journal = tmp_path / "run.jsonl"
        assert main(["--seed", "7", "--cache-dir", str(tmp_path), "run",
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        status = main(["health", str(journal), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["grade"] in ("pass", "warn", "fail")
        # Exit status mirrors the grade: 0 unless the run failed.
        assert status == (1 if payload["grade"] == "fail" else 0)

    def test_health_command_missing_journal_exits_2(self, capsys,
                                                    tmp_path):
        assert main(["health", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such journal" in capsys.readouterr().err

    def test_health_command_without_health_record_exits_2(self, capsys,
                                                          tmp_path):
        journal = tmp_path / "bare.jsonl"
        journal.write_text('{"type": "run_start"}\n', encoding="utf-8")
        assert main(["health", str(journal)]) == 2
        assert "no health record" in capsys.readouterr().err

    def test_perf_record_then_compare_is_clean(self, capsys, tmp_path,
                                               small_cli):
        baselines = tmp_path / "baselines"
        assert main(["--seed", "7", "--cache-dir", str(tmp_path / "c"),
                     "perf", "record", "main",
                     "--dir", str(baselines)]) == 0
        assert (baselines / "main.json").exists()
        capsys.readouterr()
        # Unchanged config: same fidelity, and wall seconds are trend
        # rows — the CI contract is exit 0.
        status = main(["--seed", "7", "--cache-dir", str(tmp_path / "c"),
                       "perf", "compare", "main",
                       "--dir", str(baselines)])
        assert status == 0
        assert "OK" in capsys.readouterr().out

    def test_perf_compare_bypasses_a_warm_cache(self, capsys, tmp_path,
                                                small_cli):
        """A baseline times the code, not the cache: after a warm run
        on the same cache dir, compare still curates every shard."""
        cache, baselines = tmp_path / "c", tmp_path / "baselines"
        assert main(["--seed", "7", "--cache-dir", str(cache),
                     "run"]) == 0
        assert list(cache.glob("curate-*.json"))
        assert main(["--seed", "7", "--cache-dir", str(cache),
                     "perf", "record", "main",
                     "--dir", str(baselines)]) == 0
        capsys.readouterr()
        assert main(["--seed", "7", "--cache-dir", str(cache),
                     "perf", "compare", "main",
                     "--dir", str(baselines)]) == 0
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()]
        assert [row[-1] for row in rows if "cache.hits" in row] == ["0"]
        assert [row[-1] for row in rows if "cache.misses" in row] != ["0"]

    def test_perf_compare_flags_deliberate_violation(self, capsys,
                                                     tmp_path, small_cli):
        import json
        baselines = tmp_path / "baselines"
        assert main(["--seed", "7", "--cache-dir", str(tmp_path / "c"),
                     "perf", "record", "main",
                     "--dir", str(baselines)]) == 0
        # Tamper the stored baseline: a fidelity drift is flagged, an
        # impossibly fast total is trend data and is not.
        path = baselines / "main.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["perf"]["perf.total_seconds"] = 0.0
        data["fidelity"]["records.curated"] += 1
        path.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        status = main(["--seed", "7", "--cache-dir", str(tmp_path / "c"),
                       "perf", "compare", "main", "--dir", str(baselines)])
        assert status == 1
        output = capsys.readouterr().out
        assert "REGRESSION: 1 regressed" in output
        assert "[regression] records.curated" in output
        assert "[ok        ] perf.total_seconds" in output

    def test_perf_compare_missing_baseline_exits_2(self, capsys,
                                                   tmp_path, small_cli):
        status = main(["perf", "compare", "ghost",
                       "--dir", str(tmp_path)])
        assert status == 2
        assert "no such baseline" in capsys.readouterr().err
        # Other JSON beside the baselines, such as the ledger counts.
        (tmp_path / "counts.json").write_text('{"counts": {}}',
                                              encoding="utf-8")
        assert main(["perf", "compare", "counts",
                     "--dir", str(tmp_path)]) == 2
        assert "not a baseline" in capsys.readouterr().err

    def test_perf_report_renders_the_trajectory(self, capsys, tmp_path,
                                                small_cli):
        baselines = tmp_path / "baselines"
        assert main(["--seed", "7", "--cache-dir", str(tmp_path / "c"),
                     "perf", "record", "main",
                     "--dir", str(baselines)]) == 0
        capsys.readouterr()
        assert main(["perf", "report", "--dir", str(baselines)]) == 0
        output = capsys.readouterr().out
        assert "main" in output and "total_s" in output

    def test_perf_report_without_baselines_exits_2(self, capsys,
                                                   tmp_path):
        assert main(["perf", "report", "--dir", str(tmp_path)]) == 2
        assert "no baselines" in capsys.readouterr().err


class TestStreamCommand:
    """The stream subcommand on the small test scenario.

    Shrinks the run the same way :class:`TestResilienceFlags` does; the
    watermark replay, event listing, and step parsing are the real
    code paths.
    """

    @pytest.fixture()
    def small_cli(self, monkeypatch):
        from repro.timeutils.timestamps import TimeRange, utc
        from repro.world.scenario import ScenarioConfig

        monkeypatch.setattr(
            "repro.cli.ScenarioConfig",
            lambda seed: ScenarioConfig(seed=seed, years=(2018,)))
        monkeypatch.setattr(
            "repro.cli.STUDY_PERIOD",
            TimeRange(utc(2018, 1, 1), utc(2018, 5, 1)))

    def test_stream_replays_to_horizon(self, capsys, small_cli):
        status = main(["--seed", "7", "stream", "--step", "14d"])
        assert status == 0
        out = capsys.readouterr().out
        assert "streamed to horizon" in out
        assert "curated records" in out
        assert "watermark" in out  # per-advance progress lines

    def test_stream_events_listing(self, capsys, small_cli):
        status = main(["--seed", "7", "stream", "--step", "28d",
                       "--events"])
        assert status == 0
        out = capsys.readouterr().out
        assert "  open " in out or " open" in out
        assert "-> recorded" in out

    def test_stream_journals_lifecycle_events(self, capsys, tmp_path,
                                              small_cli):
        import json
        journal = tmp_path / "stream.jsonl"
        status = main(["--seed", "7", "stream", "--step", "28d",
                       "--journal", str(journal)])
        assert status == 0
        lines = [json.loads(line)
                 for line in journal.read_text().splitlines()]
        assert any(l["type"] == "stream.event" for l in lines)

    def test_stream_bad_step_exits_2(self, capsys, small_cli):
        status = main(["stream", "--step", "bogus"])
        assert status == 2
        assert "repro: error:" in capsys.readouterr().err


class TestCacheDirFallback:
    def test_unwritable_cache_dir_warns_and_runs_uncached(self, capsys,
                                                          tmp_path):
        # A regular file where the cache dir should go breaks mkdir even
        # for root; `signals` is the cheapest command that probes it.
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        status = main(["--cache-dir", str(blocker / "cache"), "signals",
                       "SY", "2018-06-13 12:00", "2018-06-13 13:00"])
        assert status == 0
        captured = capsys.readouterr()
        assert "not writable" in captured.err
        assert "running uncached" in captured.err
        assert "Syria" in captured.out

    def test_writable_cache_dir_does_not_warn(self, capsys, tmp_path):
        status = main(["--cache-dir", str(tmp_path / "cache"), "signals",
                       "SY", "2018-06-13 12:00", "2018-06-13 13:00"])
        assert status == 0
        assert "not writable" not in capsys.readouterr().err


class TestSignalErrorHandling:
    def test_empty_merged_dataset_exits_2(self, capsys, monkeypatch,
                                          pipeline_result):
        from repro.errors import SignalError

        def explode(merged):
            raise SignalError("no events to summarize")

        monkeypatch.setattr("repro.cli.observability_table", explode)
        status = main(["--cache-dir", str(CACHE_DIR), "run"])
        assert status == 2
        captured = capsys.readouterr()
        assert "repro: error: no events to summarize" in captured.err
