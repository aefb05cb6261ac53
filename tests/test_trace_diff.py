"""Span-tree diffing (``repro trace diff``).

The acceptance bar:

- span paths resolve root-to-leaf through the journal's own id space,
  including spans adopted from process workers (lineage preserved);
- diffing a journal against itself reports a delta of exactly zero on
  every path;
- a real regression is attributed to the specific path that slowed
  down, ordered by magnitude, with improvements reported separately.
"""

import json

import pytest

import repro.api as api
from repro.cli import main
from repro.obs import diff_events, read_journal, span_path_seconds
from repro.obs.tracediff import DEFAULT_EPSILON
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))


def span(sid, name, duration, parent=None, start=0.0, worker="1/main"):
    return {"type": "span", "span_id": sid, "parent_id": parent,
            "name": name, "start": start, "duration": duration,
            "worker": worker}


def journal_events(shard_seconds=(1.0, 1.0), merge_seconds=0.5):
    """A synthetic run: run -> stage:curate -> shards, plus a merge."""
    events = [
        {"type": "run_start", "version": 1, "ts": 100.0},
        span(1, "run", sum(shard_seconds) + merge_seconds),
        span(2, "stage:curate", sum(shard_seconds), parent=1),
    ]
    for i, seconds in enumerate(shard_seconds):
        # Worker pids differ, as with spans adopted from process
        # workers; lineage still resolves through the shard's parent.
        events.append(span(10 + i, "exec.shard", seconds, parent=2,
                           worker=f"{100 + i}/worker"))
    events.append(span(3, "stage:merge", merge_seconds, parent=1))
    events.append({"type": "run_end",
                   "ts": 100.0 + sum(shard_seconds) + merge_seconds})
    return events


def write_journal(path, events):
    path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in events),
        encoding="utf-8")
    return path


class TestSpanPathSeconds:
    def test_paths_resolve_through_parent_chain(self):
        by_path = span_path_seconds(journal_events())
        assert by_path["run"] == (1, 2.5)
        assert by_path["run/stage:curate"] == (1, 2.0)
        assert by_path["run/stage:curate/exec.shard"] == (2, 2.0)
        assert by_path["run/stage:merge"] == (1, 0.5)

    def test_orphaned_parent_falls_back_to_name(self):
        # A parent id absent from the journal (e.g. a truncated live
        # journal) must not crash path resolution.
        by_path = span_path_seconds([span(7, "exec.shard", 1.5,
                                          parent=99)])
        assert by_path == {"exec.shard": (1, 1.5)}

    def test_non_span_events_are_ignored(self):
        events = journal_events() + [
            {"type": "heartbeat", "seq": 1, "final": True},
            {"type": "metrics", "counters": {}},
        ]
        assert span_path_seconds(events) \
            == span_path_seconds(journal_events())


class TestDiffEvents:
    def test_self_diff_is_zero_on_every_path(self):
        events = journal_events()
        diff = diff_events(events, events)
        assert diff.total_delta == 0.0
        assert diff.changed == ()
        assert all(d.delta == 0.0 for d in diff.deltas)
        text = "\n".join(diff.rows())
        assert "zero delta" in text

    def test_regression_attributed_to_its_path(self):
        a = journal_events(shard_seconds=(1.0, 1.0), merge_seconds=0.5)
        b = journal_events(shard_seconds=(1.5, 1.5), merge_seconds=0.3)
        diff = diff_events(a, b, label_a="before", label_b="after")
        regressed = diff.regressed()
        assert regressed[0].delta == pytest.approx(1.0)
        shard = next(d for d in regressed
                     if d.path == "run/stage:curate/exec.shard")
        assert shard.delta == pytest.approx(1.0)
        assert (shard.count_a, shard.count_b) == (2, 2)
        improved = diff.improved()
        assert [d.path for d in improved] == ["run/stage:merge"]
        assert improved[0].delta == pytest.approx(-0.2)
        text = "\n".join(diff.rows())
        assert "slower in after" in text
        assert "faster in after" in text

    def test_deltas_sorted_by_magnitude(self):
        a = journal_events(shard_seconds=(1.0, 1.0), merge_seconds=0.5)
        b = journal_events(shard_seconds=(3.0, 3.0), merge_seconds=0.4)
        diff = diff_events(a, b)
        magnitudes = [abs(d.delta) for d in diff.deltas]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_top_limits_the_report(self):
        a = journal_events(shard_seconds=(1.0,), merge_seconds=0.5)
        b = journal_events(shard_seconds=(2.0,), merge_seconds=1.5)
        diff = diff_events(a, b)
        assert len(diff.regressed(top=1)) == 1
        assert len(diff.regressed(top=10)) > 1

    def test_sub_epsilon_deltas_are_unchanged(self):
        a = journal_events(shard_seconds=(1.0, 1.0))
        b = journal_events(shard_seconds=(1.0, 1.0 + DEFAULT_EPSILON / 2))
        diff = diff_events(a, b)
        assert diff.changed == ()
        diff = diff_events(a, b, epsilon=0.0001)
        assert diff.changed != ()

    def test_path_only_in_one_run(self):
        a = journal_events()
        b = journal_events() + [span(50, "stage:extra", 2.0, parent=1)]
        diff = diff_events(a, b)
        extra = next(d for d in diff.deltas
                     if d.path == "run/stage:extra")
        assert (extra.count_a, extra.count_b) == (0, 1)
        assert extra.delta == pytest.approx(2.0)

    def test_totals_from_run_markers(self):
        a = journal_events(shard_seconds=(1.0, 1.0), merge_seconds=0.5)
        diff = diff_events(a, a)
        assert diff.total_a == pytest.approx(2.5)

    def test_totals_fall_back_to_span_envelope(self):
        events = [span(1, "run", 2.0, start=10.0)]
        diff = diff_events(events, events)
        assert diff.total_a == pytest.approx(2.0)


class TestRealRun:
    def test_real_journal_self_diff_is_zero(self, tmp_path):
        path = tmp_path / "run.jsonl"
        api.run(scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                workers=2, backend="process",
                observability=api.Observability(journal=path))
        events = read_journal(path)
        diff = diff_events(events, events)
        assert diff.changed == ()
        # Adopted worker spans resolved into full paths, not orphans.
        shard_paths = [d.path for d in diff.deltas
                       if d.path.endswith("exec.shard")]
        assert shard_paths == ["run/stage:curate/exec.shard"]


class TestCli:
    def test_trace_diff_self_reports_zero(self, tmp_path, capsys):
        path = write_journal(tmp_path / "a.jsonl", journal_events())
        assert main(["trace", "diff", str(path), str(path)]) == 0
        assert "zero delta" in capsys.readouterr().out

    def test_trace_diff_two_runs(self, tmp_path, capsys):
        a = write_journal(tmp_path / "a.jsonl", journal_events())
        b = write_journal(
            tmp_path / "b.jsonl",
            journal_events(shard_seconds=(2.0, 2.0)))
        assert main(["trace", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "exec.shard" in out

    def test_trace_diff_missing_journal_exits_2(self, tmp_path, capsys):
        a = write_journal(tmp_path / "a.jsonl", journal_events())
        assert main(["trace", "diff", str(a),
                     str(tmp_path / "missing.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
