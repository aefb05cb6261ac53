"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

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

    def test_runs_diff_arguments(self):
        args = build_parser().parse_args(
            ["runs", "diff", "base.json", "run"])
        assert (args.runs_command, args.run_a, args.run_b) \
            == ("diff", "base.json", "run")
        assert not args.provenance
        # Wall time is not banded and baselines are found by name or
        # path, so there is no band to widen and no directory to pass.
        for extra in (["--tolerance", "10"], ["--dir", "b"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["runs", "diff", "a", "b"]
                                          + extra)

    def test_perf_command_is_gone(self):
        for argv in (["perf"], ["perf", "compare", "canonical-seed2023"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["serve", "build", "--run", "nightly"],
        ["serve", "build", "--page-size", "25"],
        ["serve", "run", "--serve-cache-size", "8"],
        ["serve", "loadgen", "--serve-cache-size", "8"],
        ["trace", "diff", "a.jsonl", "b.jsonl", "--epsilon", "0.1"],
    ])
    def test_removed_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

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
    """The health and ``runs diff`` commands on the small test scenario.

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

    def test_runs_dir_run_lists_its_journal(self, capsys, tmp_path,
                                            small_cli):
        """A run filed under --runs-dir names the journal it filed with
        no other export flag, as ``stream`` does; with --json the line
        goes to stderr."""
        runs = tmp_path / "runs"
        base = ["--seed", "7", "--cache-dir", str(tmp_path / "cache"),
                "--runs-dir", str(runs), "run"]
        for extra, stream in (([], "out"), (["--stats", "--json"], "err")):
            assert main(base + extra) == 0
            captured = capsys.readouterr()
            run_id = captured.err.split("registered run ")[1].split()[0]
            journal = runs / run_id / "journal.jsonl"
            assert journal.exists()
            assert f"wrote {journal}" in getattr(captured, stream)

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

    def test_health_command_old_info_row_exits_2(self, capsys, tmp_path):
        # Journals written before the ``info`` check mode was removed
        # carry a row this version cannot grade: one error line, exit 2.
        import json
        row = {"name": "cache.hit_rate", "mode": "info", "target": 0.0,
               "warn": 0.0, "fail": 0.0, "note": "", "value": 0.5,
               "deviation": 0.0, "grade": "pass"}
        journal = tmp_path / "old.jsonl"
        journal.write_text(
            '{"type": "run_start"}\n'
            + json.dumps({"type": "health", "grade": "pass",
                          "checks": [row], "stats": {}}) + "\n",
            encoding="utf-8")
        assert main(["health", str(journal)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "info" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.fixture(scope="class")
    def filed(self, tmp_path_factory):
        """A small run filed under --runs-dir as ``small``, and its
        registry record saved as a baseline JSON."""
        from repro.obs import RunRegistry, save_baseline
        from repro.timeutils.timestamps import TimeRange, utc
        from repro.world.scenario import ScenarioConfig

        root = tmp_path_factory.mktemp("filed")
        runs = root / "runs"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.cli.ScenarioConfig",
                lambda seed: ScenarioConfig(seed=seed, years=(2018,)))
            patch.setattr(
                "repro.cli.STUDY_PERIOD",
                TimeRange(utc(2018, 1, 1), utc(2018, 7, 1)))
            assert main(["--seed", "7", "--cache-dir", str(root / "c"),
                         "--runs-dir", str(runs), "run",
                         "--run-name", "small"]) == 0
        baseline = save_baseline(
            RunRegistry(runs).get("small").as_baseline(),
            root / "small.json")
        return runs, baseline

    def _diff(self, runs, *argv):
        return main(["--runs-dir", str(runs), "runs", "diff", *argv])

    def test_runs_diff_against_a_saved_baseline_is_clean(self, capsys,
                                                         filed):
        runs, baseline = filed
        capsys.readouterr()
        # Unchanged config: same fidelity, and wall seconds are trend
        # rows, so the CI contract is exit 0.
        assert self._diff(runs, str(baseline), "small") == 0
        assert "OK: 0 regressed" in capsys.readouterr().out

    def test_runs_diff_takes_a_baseline_on_either_side(
            self, capsys, filed, tmp_path, monkeypatch):
        runs, baseline = filed
        # By name under benchmarks/baselines/ when no run carries it.
        named = tmp_path / "benchmarks" / "baselines" / "small-base.json"
        named.parent.mkdir(parents=True)
        named.write_text(baseline.read_text(encoding="utf-8"),
                         encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        for argv in (["small", str(baseline)], ["small-base", "small"],
                     ["small", "small-base"]):
            assert self._diff(runs, *argv) == 0, argv
            assert "OK: 0 regressed" in capsys.readouterr().out

    def test_runs_diff_flags_a_tampered_baseline(self, capsys, filed,
                                                 tmp_path):
        import json
        runs, baseline = filed
        # A fidelity drift is flagged; an impossibly fast total is
        # trend data and is not.
        data = json.loads(baseline.read_text(encoding="utf-8"))
        data["perf"]["perf.total_seconds"] = 0.0
        data["fidelity"]["records.curated"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert self._diff(runs, str(tampered), "small") == 1
        output = capsys.readouterr().out
        assert "REGRESSION: 1 regressed" in output
        assert "[regression] records.curated" in output
        assert "[ok        ] perf.total_seconds" in output

    def test_runs_diff_unresolvable_token_exits_2(self, capsys, filed):
        runs, _ = filed
        capsys.readouterr()
        for argv in (["ghost", "small"], ["small", "ghost"]):
            assert self._diff(runs, *argv) == 2
            err = capsys.readouterr().err
            # One line naming both places searched.
            assert len(err.splitlines()) == 1
            assert "no such baseline" in err
            assert "ghost.json" in err and str(runs) in err
        assert self._diff(runs, "small", "missing.json") == 2
        assert "no such baseline: missing.json" in capsys.readouterr().err

    def test_runs_diff_rejects_a_non_baseline_json(self, capsys, filed,
                                                   tmp_path):
        from pathlib import Path
        runs, _ = filed
        ledger = (Path(__file__).resolve().parents[1] / "benchmarks"
                  / "baselines" / "ledger-counts.json")
        # Other JSON kept beside the baselines has no schema version.
        versionless = tmp_path / "counts.json"
        versionless.write_text('{"counts": {}}', encoding="utf-8")
        junk = tmp_path / "junk.json"
        junk.write_text("not json", encoding="utf-8")
        capsys.readouterr()
        for path in (ledger, versionless, junk):
            assert self._diff(runs, str(path), "small") == 2
            assert "not a baseline" in capsys.readouterr().err

    def test_runs_diff_provenance_rejects_a_baseline(self, capsys, filed):
        runs, baseline = filed
        capsys.readouterr()
        for argv in ([str(baseline), "small"], ["small", str(baseline)]):
            assert self._diff(runs, "--provenance", *argv) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert "a baseline has none" in err


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


class TestOptionsCheckedBeforeRun:
    """Bad option values exit 2 with a one-line error before any
    pipeline work starts."""

    @pytest.fixture()
    def no_run(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("the pipeline ran")

        monkeypatch.setattr("repro.cli._run", explode)
        monkeypatch.setattr("repro.cli.api.stream", explode)

    @pytest.mark.parametrize("argv", [
        ["run", "--heartbeat", "nan"],
        ["run", "--heartbeat", "inf"],
        ["stream", "--heartbeat", "nan"],
        ["stream", "--step", "inf"],
        ["stream", "--step", "1e400"],
        ["stream", "--step", "nan"],
        ["serve", "build", "--countries", "-1"],
        ["serve", "build", "--countries", "0"],
        ["serve", "build", "--zooms", "0,-1"],
        ["serve", "build", "--tile-bins", "0"],
    ])
    def test_bad_value_exits_2(self, capsys, no_run, tmp_path, argv):
        if argv[:2] == ["serve", "build"]:
            argv = argv + ["--out", str(tmp_path / "store")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "Traceback" not in err


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


class TestClosedPipe:
    def test_closed_reader_exits_without_traceback(self):
        """``repro runs diff ... | head -1``: the reader is gone before
        the table is printed, so every write to stdout fails."""
        repo = Path(__file__).resolve().parent.parent
        baseline = repo / "benchmarks" / "baselines" / \
            "canonical-seed2023.json"
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        try:
            process = subprocess.run(
                [sys.executable, "-m", "repro", "runs", "diff",
                 "canonical-seed2023", str(baseline)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, cwd=str(repo), timeout=120)
        finally:
            os.close(write_end)
        assert process.returncode == 1
        assert process.stderr == ""
