"""The cross-run registry: content-addressed run slots and ``repro runs``.

The acceptance bar:

- registering a canonical run round-trips: the journal lands verbatim
  in its content-addressed slot and ``meta.json`` carries the health
  grade, stats, config, and event/span/heartbeat counts;
- registration is idempotent — the same journal bytes always resolve
  to the same slot;
- runs resolve by full ID, unique ID prefix, or name (newest wins),
  and the CLI accepts run IDs anywhere a journal path is accepted,
  exiting 2 (not a traceback) on unknown tokens.
"""

import json

import pytest

import repro.api as api
from repro.cli import main
from repro.obs import RunRecord, RunRegistry, read_journal, run_id_for
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))


def synthetic_journal(path, *, ts=1000.0, seconds=2.0, grade="pass",
                      salt=""):
    """A minimal but well-formed journal file; returns its path."""
    events = [
        {"type": "run_start", "version": 1, "ts": ts},
        {"type": "span", "span_id": 1, "parent_id": None, "name": "run",
         "start": 0.0, "duration": seconds, "worker": "1/main",
         "attrs": {"salt": salt}},
        {"type": "heartbeat", "seq": 1, "final": True, "pid": 1},
        {"type": "health", "grade": grade,
         "stats": {"perf.total_seconds": seconds,
                   "fidelity.match_rate": 0.5}},
        {"type": "run_end", "ts": ts + seconds},
    ]
    path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events),
        encoding="utf-8")
    return path


@pytest.fixture
def registry(tmp_path):
    return RunRegistry(tmp_path / "runs")


class TestRunId:
    def test_deterministic_16_hex(self):
        digest = run_id_for(b"journal bytes")
        assert digest == run_id_for(b"journal bytes")
        assert len(digest) == 16
        assert set(digest) <= set("0123456789abcdef")

    def test_different_bytes_different_id(self):
        assert run_id_for(b"run a") != run_id_for(b"run b")


class TestRegister:
    def test_round_trip(self, tmp_path, registry):
        source = synthetic_journal(tmp_path / "run.jsonl",
                                   ts=1000.0, seconds=2.0)
        data = source.read_bytes()
        record = registry.register(source, name="canonical",
                                   config={"seed": 7},
                                   fingerprint="abc123")
        assert record.run_id == run_id_for(data)
        assert record.name == "canonical"
        assert record.grade == "pass"
        assert record.config == {"seed": 7}
        assert record.fingerprint == "abc123"
        assert record.stats["perf.total_seconds"] == 2.0
        assert record.n_events == 5
        assert record.n_spans == 1
        assert record.n_heartbeats == 1
        assert record.run_seconds == 2.0
        assert record.created == "1970-01-01T00:16:40Z"
        # The journal lands verbatim; the source survives (copy mode).
        assert record.journal_path.read_bytes() == data
        assert source.exists()
        # meta.json round-trips through from_dict.
        meta = json.loads((record.path / "meta.json").read_text())
        assert RunRecord.from_dict(meta, path=record.path) == record

    def test_idempotent(self, tmp_path, registry):
        source = tmp_path / "run.jsonl"
        synthetic_journal(source)
        first = registry.register(source, name="one")
        again = registry.register(source, name="ignored-second-name")
        assert again.run_id == first.run_id
        assert again.name == "one"  # re-registration keeps the record
        assert len(registry.records()) == 1

    def test_move_relocates_the_source(self, tmp_path, registry):
        source = synthetic_journal(tmp_path / "pending.jsonl")
        data = source.read_bytes()
        record = registry.register(source, move=True)
        assert not source.exists()
        assert record.journal_path.read_bytes() == data

    def test_default_name_is_id_prefix(self, tmp_path, registry):
        source = tmp_path / "run.jsonl"
        synthetic_journal(source)
        record = registry.register(source)
        assert record.name == record.run_id[:8]

    def test_failing_grade_is_preserved(self, tmp_path, registry):
        source = tmp_path / "run.jsonl"
        synthetic_journal(source, grade="fail")
        assert registry.register(source).grade == "fail"


class TestResolve:
    def _register_two(self, tmp_path, registry):
        a = registry.register(
            synthetic_journal(tmp_path / "a.jsonl", ts=1000.0, salt="a"),
            name="alpha")
        b = registry.register(
            synthetic_journal(tmp_path / "b.jsonl", ts=2000.0, salt="b"),
            name="beta")
        return a, b

    def test_full_id_prefix_and_name(self, tmp_path, registry):
        a, b = self._register_two(tmp_path, registry)
        assert registry.get(a.run_id).run_id == a.run_id
        assert registry.get(a.run_id[:6]).run_id == a.run_id
        assert registry.get("beta").run_id == b.run_id

    def test_name_resolves_to_newest(self, tmp_path, registry):
        registry.register(
            synthetic_journal(tmp_path / "old.jsonl", ts=1000.0,
                              salt="old"), name="nightly")
        newer = registry.register(
            synthetic_journal(tmp_path / "new.jsonl", ts=5000.0,
                              salt="new"), name="nightly")
        assert registry.get("nightly").run_id == newer.run_id

    def test_ambiguous_prefix_raises(self, tmp_path, registry):
        self._register_two(tmp_path, registry)
        # The empty prefix matches every run.
        with pytest.raises(KeyError, match="ambiguous"):
            registry.get("")

    def test_unknown_token_raises(self, registry):
        with pytest.raises(KeyError, match="no run"):
            registry.get("nope")

    def test_records_sorted_oldest_first(self, tmp_path, registry):
        self._register_two(tmp_path, registry)
        created = [r.created for r in registry.records()]
        assert created == sorted(created)


class TestViews:
    def test_empty_registry_rows(self, registry):
        rows = registry.rows()
        assert len(rows) == 1 and "no runs registered" in rows[0]

    def test_trend_table_rows(self, tmp_path, registry):
        registry.register(
            synthetic_journal(tmp_path / "a.jsonl", ts=1000.0, salt="a"),
            name="alpha")
        text = "\n".join(registry.rows())
        assert "alpha" in text

    def test_as_baseline(self, tmp_path, registry):
        source = tmp_path / "run.jsonl"
        synthetic_journal(source, seconds=2.0)
        baseline = registry.register(source, name="base").as_baseline()
        assert baseline.name == "base"
        assert baseline.health_grade == "pass"
        assert baseline.perf["perf.total_seconds"] == 2.0
        assert baseline.fidelity["fidelity.match_rate"] == 0.5
        assert baseline.created == "1970-01-01T00:16:40Z"

    def test_show_rows(self, tmp_path, registry):
        source = tmp_path / "run.jsonl"
        synthetic_journal(source)
        record = registry.register(source, name="showme",
                                   fingerprint="deadbeef")
        text = "\n".join(record.rows())
        assert record.run_id in text
        assert "showme" in text
        assert "deadbeef" in text
        assert "1 heartbeats" in text


class TestApiIntegration:
    def test_runs_dir_registers_the_run(self, tmp_path):
        root = tmp_path / "runs"
        result = api.run(scenario_config=SMALL_CONFIG,
                         study_period=SMALL_PERIOD,
                         runs_dir=root, run_name="smoke")
        assert result.run_id is not None
        assert result.run_dir == root / result.run_id
        assert result.journal_path == result.run_dir / "journal.jsonl"
        assert result.journal_path.exists()
        # The auto-created pending journal was moved, not left behind.
        assert not list(root.glob("pending-*"))
        record = RunRegistry(root).get(result.run_id)
        assert record.name == "smoke"
        assert record.config["seed"] == SMALL_CONFIG.seed
        assert record.fingerprint
        assert record.grade == result.health.grade
        events = read_journal(result.journal_path)
        assert any(e["type"] == "health" for e in events)


class TestCli:
    @pytest.fixture
    def populated(self, tmp_path):
        root = tmp_path / "runs"
        source = tmp_path / "canonical.jsonl"
        synthetic_journal(source)
        record = RunRegistry(root).register(source, name="canonical")
        return root, record

    def test_runs_list(self, populated, capsys):
        root, _ = populated
        assert main(["--runs-dir", str(root), "runs", "list"]) == 0
        assert "canonical" in capsys.readouterr().out

    def test_runs_show_by_prefix(self, populated, capsys):
        root, record = populated
        assert main(["--runs-dir", str(root), "runs", "show",
                     record.run_id[:6]]) == 0
        assert record.run_id in capsys.readouterr().out

    def test_runs_register(self, populated, tmp_path, capsys):
        root, _ = populated
        source = tmp_path / "other.jsonl"
        synthetic_journal(source, ts=3000.0, salt="other")
        assert main(["--runs-dir", str(root), "runs", "register",
                     str(source), "--name", "other"]) == 0
        assert RunRegistry(root).get("other").name == "other"

    def test_runs_self_diff_is_clean(self, populated, capsys):
        root, record = populated
        assert main(["--runs-dir", str(root), "runs", "diff",
                     record.run_id, record.run_id]) == 0

    def test_registered_journal_diffs_config_against_a_baseline(
            self, populated, tmp_path, capsys):
        """``runs register`` files no config, so a committed baseline
        flags each config key it sets; a baseline saved from the same
        record diffs clean on either side."""
        from repro.obs import PerfBaseline, save_baseline
        root, record = populated
        saved = save_baseline(record.as_baseline(), tmp_path / "saved.json")
        for argv in ([str(saved), "canonical"], ["canonical", str(saved)]):
            assert main(["--runs-dir", str(root), "runs", "diff",
                         *argv]) == 0
        committed = save_baseline(
            PerfBaseline.capture(
                name="committed",
                config={"seed": 2023, "backend": "serial", "shards": None},
                statistics=record.stats),
            tmp_path / "committed.json")
        capsys.readouterr()
        assert main(["--runs-dir", str(root), "runs", "diff",
                     str(committed), "canonical"]) == 1
        regressed = [line.split()[1:] for line in
                     capsys.readouterr().out.splitlines()
                     if "[regression]" in line]
        assert regressed == [["config.backend", "serial", "->", "-"],
                             ["config.seed", "2023", "->", "-"]]

    def test_trace_summarize_accepts_run_id(self, populated, capsys):
        root, record = populated
        assert main(["--runs-dir", str(root), "trace", "summarize",
                     record.run_id]) == 0
        assert "span" in capsys.readouterr().out

    def test_health_accepts_run_id(self, populated, capsys):
        root, record = populated
        assert main(["--runs-dir", str(root), "health",
                     record.run_id]) == 0

    def test_unknown_run_exits_2(self, populated, capsys):
        root, _ = populated
        assert main(["--runs-dir", str(root), "runs", "show",
                     "ffffffffffffffff"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_journal_path_exits_2(self, tmp_path, capsys):
        assert main(["--runs-dir", str(tmp_path / "runs"), "trace",
                     "summarize", "no-such-run"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
