"""Decision provenance: lineage capsules, explain, and provenance diff.

The acceptance bar for :mod:`repro.obs.provenance`:

- every curation decision leaves a content-addressed capsule, and every
  dismissal branch in :mod:`repro.ioda.curation` is reachable through
  one (the reasons below all appear on the small scenario);
- provenance is journal-only — the curated records are byte-identical
  with provenance on or off, on every backend, and under any
  ``api.stream`` chunking, and the capsule *ids* are identical too
  (content addressing makes the decision chain chunking-independent);
- ``explain_record`` reconstructs one record's chain from a journal,
  and ``diff_provenance`` attributes a cross-run record delta to the
  earliest diverging decision step;
- the CLI explain family fails with exit code 2 and a one-line
  message, never a traceback.
"""

import json
from hashlib import blake2b

import pytest

import repro.api as api
from repro.cli import main
from repro.io import record_to_dict
from repro.ioda.curation import CurationConfig
from repro.obs.journal import read_journal
from repro.obs.provenance import (
    DECISION_STEPS,
    DrawCursor,
    ProvenanceError,
    ProvenanceRecorder,
    capsule_id_for,
    capsules_in,
    diff_provenance,
    explain_record,
    record_manifest,
    sorted_capsules,
)
from repro.obs.registry import RunRecord, RunRegistry
from repro.obs.runtime import Observability, activate
from repro.obs.summary import summarize_events
from repro.stream.engine import _Open, _WindowState
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
#: Six months: long enough that every adjudication reason below occurs.
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))
WEEK = 7 * 86400

DISMISSAL_REASONS = {"outside_period", "low_visibility",
                     "no_corroboration", "control_artifact"}
RECORDED_REASONS = {"multi_signal", "corroborated", "region_descent"}


def record_bytes(records):
    return json.dumps([record_to_dict(r) for r in records],
                      sort_keys=True)


def provenance_events(result):
    """RunResult capsules re-wrapped as journal provenance events."""
    return [{"type": "provenance", **c} for c in result.provenance]


def small_run(**kwargs):
    return api.run(scenario_config=SMALL_CONFIG,
                   study_period=SMALL_PERIOD, **kwargs)


@pytest.fixture(scope="module")
def journal_path(tmp_path_factory):
    return tmp_path_factory.mktemp("prov") / "run.jsonl"


@pytest.fixture(scope="module")
def prov_run(journal_path):
    return small_run(observability=Observability(provenance=True,
                                                 journal=journal_path))


@pytest.fixture(scope="module")
def prov_events(prov_run, journal_path):
    return read_journal(journal_path)


@pytest.fixture(scope="module")
def plain_bytes():
    return record_bytes(small_run().curated_records)


class TestCapsuleIdentity:
    def test_content_addressed(self):
        payload = {"stage": "adjudicate", "country_iso2": "SY",
                   "outcome": "recorded"}
        assert capsule_id_for(payload) == capsule_id_for(dict(payload))
        assert capsule_id_for(payload) != capsule_id_for(
            {**payload, "outcome": "dismissed"})
        assert len(capsule_id_for(payload)) == 16
        int(capsule_id_for(payload), 16)

    def test_key_order_does_not_matter(self):
        a = {"stage": "adjudicate", "outcome": "recorded"}
        b = {"outcome": "recorded", "stage": "adjudicate"}
        assert capsule_id_for(a) == capsule_id_for(b)

    def test_draw_cursor_counts_draws(self):
        cursor = DrawCursor()
        assert [cursor.take() for _ in range(3)] == [0, 1, 2]
        assert cursor.index == 3

    def test_recorder_seals_and_indexes(self):
        recorder = ProvenanceRecorder()
        cid = recorder.emit({
            "stage": "adjudicate", "country_iso2": "SY",
            "outcome": "recorded",
            "record": {"local_id": 4}})
        assert recorder.capsules[0]["capsule_id"] == cid
        assert recorder.by_record[("SY", 4)] == cid

    def test_adopt_grafts_worker_capsules(self):
        worker = ProvenanceRecorder()
        worker.emit({"stage": "adjudicate", "country_iso2": "IR",
                     "outcome": "dismissed", "reason": "low_visibility"})
        parent = ProvenanceRecorder()
        parent.adopt(list(worker.capsules))
        assert [c["capsule_id"] for c in parent.capsules] \
            == [c["capsule_id"] for c in worker.capsules]


class TestRunCapsules:
    def test_result_carries_sorted_capsules(self, prov_run):
        capsules = prov_run.provenance
        assert capsules and all(c["capsule_id"] for c in capsules)
        keys = [(c["country_iso2"], c.get("window_start"))
                for c in capsules]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1] or 0))

    def test_every_dismissal_branch_leaves_a_capsule(self, prov_run):
        reasons = {}
        for capsule in prov_run.provenance:
            key = (capsule["outcome"], capsule["reason"])
            reasons[key] = reasons.get(key, 0) + 1
        assert {r for (o, r) in reasons if o == "dismissed"} \
            == DISMISSAL_REASONS
        assert {r for (o, r) in reasons if o == "recorded"} \
            == RECORDED_REASONS

    def test_dismissal_capsules_carry_their_evidence(self, prov_run):
        by_reason = {}
        for capsule in prov_run.provenance:
            by_reason.setdefault(capsule["reason"], capsule)
        assert by_reason["low_visibility"]["visibility"]["visible"] is not None
        corr = by_reason["no_corroboration"]["corroboration"]
        assert corr["checked"] and not corr["corroborated"]
        control = by_reason["control_artifact"]["control"]
        assert control["artifact"] and control["controls"]
        assert "visibility" not in by_reason["outside_period"]

    def test_consumed_draws_record_substream_coordinates(self, prov_run):
        draws = [c["corroboration"]["draw"] for c in prov_run.provenance
                 if "draw" in c.get("corroboration", {})]
        assert draws
        for draw in draws:
            assert draw["substream"][0] == "curation"
            assert draw["index"] >= 0

    def test_recorded_capsules_reference_their_record(self, prov_run):
        recorded = [c for c in prov_run.provenance
                    if c["outcome"] == "recorded"]
        assert recorded
        for capsule in recorded:
            assert capsule["record"]["local_id"] >= 1
            # The recorded span is refined (anchored) from the
            # candidate span, so it overlaps rather than equals it.
            assert capsule["record"]["span"]["start"] \
                < capsule["span"]["end"]
            assert capsule["record"]["span"]["end"] \
                > capsule["span"]["start"]

    def test_manifest_maps_every_curated_record(self, prov_events,
                                                prov_run):
        manifest = record_manifest(prov_events)
        assert len(manifest) == len(prov_run.curated_records)
        ids = {c["capsule_id"] for c in prov_run.provenance}
        for record in prov_run.curated_records:
            entry = manifest[record.record_id]
            assert entry["capsule_id"] in ids
            assert entry["country_iso2"] == record.country_iso2

    def test_off_by_default(self):
        assert small_run().provenance == ()


class TestByteIdentity:
    """Records and capsule ids are backend- and chunking-independent."""

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("process", 2)])
    def test_backend_invariance(self, plain_bytes, prov_run, backend,
                                workers):
        result = small_run(observability=Observability(provenance=True),
                           backend=backend, workers=workers)
        assert record_bytes(result.curated_records) == plain_bytes
        assert {c["capsule_id"] for c in result.provenance} \
            == {c["capsule_id"] for c in prov_run.provenance}

    @pytest.mark.parametrize("step", [WEEK, 30 * 86400])
    def test_stream_chunking_invariance(self, plain_bytes, prov_run,
                                        step):
        session = api.stream(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            observability=Observability(provenance=True))
        closes = []
        for events in session.replay(step=step):
            closes += [e for e in events if e.state == "close"]
        result = session.finalize()
        assert record_bytes(result.curated_records) == plain_bytes
        assert closes and all(e.capsule_id for e in closes)
        # Adjudication capsules are chunking-independent; lifecycle
        # capsules depend on how the feed was chunked and are excluded
        # from cross-run comparison.
        streamed = {c["capsule_id"] for c in result.provenance
                    if c["stage"] == "adjudicate"}
        assert streamed == {c["capsule_id"] for c in prov_run.provenance
                            if c["stage"] == "adjudicate"}

    def test_stream_events_reference_capsules_only_with_provenance(self):
        session = api.stream(scenario_config=SMALL_CONFIG,
                             study_period=SMALL_PERIOD)
        for events in session.replay(step=4 * WEEK):
            for event in events:
                assert event.capsule_id is None
                assert "capsule_id" not in event.as_dict()
        session.finalize()


class TestMergedCapsule:
    def test_merge_into_neighbor_mints_a_lifecycle_capsule(self):
        session = api.stream(
            scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
            observability=Observability(provenance=True))
        for _ in session.replay(step=26 * WEEK):
            pass
        engine = session._engine
        window = TimeRange(utc(2018, 2, 1), utc(2018, 2, 8))
        ws = _WindowState(window)
        open_ = _Open(key=window.start, span=window, signals=())
        obs = session._obs
        with activate(obs):
            before = obs.metrics.counter(
                "curation.decision.merged",
                reason="merged_into_neighbor").value
            cid = engine._merged_capsule("SY", ws, open_)
            after = obs.metrics.counter(
                "curation.decision.merged",
                reason="merged_into_neighbor").value
        assert after == before + 1
        capsule = next(c for c in obs.provenance.capsules
                       if c["capsule_id"] == cid)
        assert capsule["stage"] == "lifecycle"
        assert capsule["outcome"] == "merged"
        session.finalize()


class TestExplain:
    def test_explain_by_record_id(self, prov_events, prov_run):
        record = prov_run.curated_records[0]
        report = explain_record(prov_events, str(record.record_id))
        rows = report.rows()
        assert any(r.startswith("subject") for r in rows)
        assert any(r.startswith("capsule") for r in rows)
        assert any(r.startswith("record") for r in rows)
        assert record.country_iso2 in "\n".join(rows)

    def test_explain_includes_the_downstream_verdict(self, prov_events,
                                                     prov_run):
        texts = [
            "\n".join(explain_record(
                prov_events, str(r.record_id)).rows())
            for r in prov_run.curated_records]
        assert any("label" in t for t in texts)

    def test_explain_by_capsule_prefix(self, prov_events, prov_run):
        manifest = record_manifest(prov_events)
        record = prov_run.curated_records[0]
        capsule_id = manifest[record.record_id]["capsule_id"]
        report = explain_record(prov_events, capsule_id[:10])
        assert any(capsule_id in row for row in report.rows())

    def test_unknown_record_raises(self, prov_events):
        with pytest.raises(ProvenanceError, match="not found"):
            explain_record(prov_events, "999999")

    def test_capsule_less_journal_raises(self, tmp_path):
        result = small_run(
            observability=Observability(journal=tmp_path / "plain.jsonl"))
        assert result.provenance == ()
        with pytest.raises(ProvenanceError):
            explain_record(read_journal(tmp_path / "plain.jsonl"), "1")


class TestDiff:
    def test_self_diff_is_empty(self, prov_events):
        diff = diff_provenance(prov_events, prov_events)
        assert diff.empty
        assert "identical decision chains" in diff.rows()[0]

    def test_cross_config_delta_attributes_to_corroboration(
            self, prov_run, prov_events):
        altered = small_run(
            observability=Observability(provenance=True),
            curation_config=CurationConfig(p_external_corroboration=0.0))
        diff = diff_provenance(prov_events, provenance_events(altered))
        assert not diff.empty
        assert diff.flips
        for step, from_outcome, to_outcome, count in diff.flips:
            assert step == "corroboration"
            assert count >= 1
        assert any(from_outcome == "recorded" and to_outcome == "dismissed"
                   for _, from_outcome, to_outcome, _ in diff.flips)
        text = "\n".join(diff.rows(label_a="base", label_b="no-corr"))
        assert "lost external corroboration" in text

    def test_steps_are_ordered_trigger_to_outcome(self):
        assert DECISION_STEPS[0] == "period"
        assert DECISION_STEPS[-1] == "outcome"

    def test_diff_requires_capsules_on_both_sides(self, prov_events):
        with pytest.raises(ProvenanceError):
            diff_provenance(prov_events, [{"type": "run_start"}])


class TestDecisionCounters:
    def test_counters_increment_without_provenance(self, tmp_path):
        small_run(
            observability=Observability(journal=tmp_path / "run.jsonl"))
        events = read_journal(tmp_path / "run.jsonl")
        counters = [e for e in events if e.get("type") == "metrics"][-1][
            "counters"]
        for reason in DISMISSAL_REASONS:
            assert counters[
                f"curation.decision.dismissed{{reason={reason}}}"] > 0
        for reason in RECORDED_REASONS:
            assert counters[
                f"curation.decision.recorded{{reason={reason}}}"] > 0
        assert capsules_in(events) == []

    def test_counters_match_capsule_tallies(self, prov_events):
        counters = [e for e in prov_events
                    if e.get("type") == "metrics"][-1]["counters"]
        capsules = capsules_in(prov_events)
        for outcome in ("recorded", "dismissed"):
            for reason in (DISMISSAL_REASONS if outcome == "dismissed"
                           else RECORDED_REASONS):
                key = f"curation.decision.{outcome}{{reason={reason}}}"
                tally = sum(1 for c in capsules
                            if c.get("outcome") == outcome
                            and c.get("reason") == reason)
                assert counters[key] == tally

    def test_openmetrics_exposes_decision_series(self, journal_path,
                                                 prov_run, capsys):
        assert main(["metrics", "export", str(journal_path)]) == 0
        text = capsys.readouterr().out
        assert "repro_curation_decision_dismissed_total" in text
        assert 'reason="low_visibility"' in text
        assert "repro_curation_decision_recorded_total" in text


#: The small run's decision tallies, one per ``curation.decision.*``
#: series; with the capsule digest below they pin the evidence every
#: decision leaves, so a refactor of the decision chain cannot move it.
PINNED_DECISIONS = {
    "curation.decision.dismissed{reason=control_artifact}": 21,
    "curation.decision.dismissed{reason=low_visibility}": 1014,
    "curation.decision.dismissed{reason=no_corroboration}": 206,
    "curation.decision.dismissed{reason=outside_period}": 5,
    "curation.decision.recorded{reason=corroborated}": 1,
    "curation.decision.recorded{reason=multi_signal}": 129,
    "curation.decision.recorded{reason=region_descent}": 17,
}


def _decision_counters(events):
    counters = [e for e in events if e.get("type") == "metrics"][-1][
        "counters"]
    return {key: value for key, value in counters.items()
            if key.startswith("curation.decision.")}


class TestDecisionEvidencePin:
    def test_capsule_ids_are_pinned(self, prov_run):
        ids = sorted(c["capsule_id"] for c in prov_run.provenance)
        assert len(ids) == 1393
        digest = blake2b("\n".join(ids).encode("utf-8"),
                         digest_size=8).hexdigest()
        assert digest == "04375aa3d5381e31"

    def test_decision_counters_are_pinned(self, prov_events):
        assert _decision_counters(prov_events) == PINNED_DECISIONS

    def test_provenance_off_counts_the_same(self, tmp_path):
        small_run(
            observability=Observability(journal=tmp_path / "run.jsonl"))
        events = read_journal(tmp_path / "run.jsonl")
        assert _decision_counters(events) == PINNED_DECISIONS


class TestSummaryAndRegistry:
    def test_journal_summary_counts_capsules(self, prov_events,
                                             prov_run):
        summary = summarize_events(prov_events)
        assert summary.n_provenance == len(prov_run.provenance)
        assert f"{summary.n_provenance} capsules" in summary.rows()[0]

    def test_plain_summary_omits_capsules(self, tmp_path):
        small_run(
            observability=Observability(journal=tmp_path / "run.jsonl"))
        summary = summarize_events(read_journal(tmp_path / "run.jsonl"))
        assert summary.n_provenance == 0
        assert "capsules" not in summary.rows()[0]

    def test_registry_tallies_decisions(self, tmp_path, journal_path,
                                        prov_run):
        record = RunRegistry(tmp_path / "runs").register(
            journal_path, name="prov")
        assert record.n_provenance == len(prov_run.provenance)
        assert record.decisions["dismissed:low_visibility"] > 0
        assert record.decisions["recorded:multi_signal"] > 0
        text = "\n".join(record.rows())
        assert f"provenance    {record.n_provenance} capsules" in text
        assert "dismissed:low_visibility" in text

    def test_record_round_trips_decisions(self, tmp_path, journal_path):
        record = RunRegistry(tmp_path / "runs").register(
            journal_path, name="prov")
        clone = RunRecord.from_dict(record.as_dict())
        assert clone.n_provenance == record.n_provenance
        assert dict(clone.decisions) == dict(record.decisions)


class TestExplainCLI:
    """The explain family: exit 0 on success, 2 with one line on error."""

    def test_explain_renders_the_chain(self, journal_path, prov_run,
                                       capsys):
        record = prov_run.curated_records[0]
        assert main(["explain", str(journal_path),
                     str(record.record_id)]) == 0
        out = capsys.readouterr().out
        assert "subject" in out and "capsule" in out

    def test_unknown_record_exits_2(self, journal_path, prov_run,
                                    capsys):
        assert main(["explain", str(journal_path), "999999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_journal_exits_2(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path / "absent.jsonl"),
                     "1"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_capsule_less_journal_exits_2(self, tmp_path, capsys):
        small_run(
            observability=Observability(journal=tmp_path / "plain.jsonl"))
        assert main(["explain", str(tmp_path / "plain.jsonl"),
                     "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")

    def test_runs_diff_self_is_identical_exit_0(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        small_run(observability=Observability(provenance=True),
                  runs_dir=runs, run_name="base")
        assert main(["--runs-dir", str(runs), "runs", "diff",
                     "--provenance", "base", "base"]) == 0
        assert "identical decision chains" in capsys.readouterr().out

    def test_runs_diff_cross_config_exit_1(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        small_run(observability=Observability(provenance=True),
                  runs_dir=runs, run_name="base")
        small_run(
            observability=Observability(provenance=True),
            runs_dir=runs, run_name="no-corr",
            curation_config=CurationConfig(p_external_corroboration=0.0))
        assert main(["--runs-dir", str(runs), "runs", "diff",
                     "--provenance", "base", "no-corr"]) == 1
        out = capsys.readouterr().out
        assert "corroboration" in out

    def test_runs_diff_without_capsules_exit_2(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        small_run(runs_dir=runs, run_name="plain")
        assert main(["--runs-dir", str(runs), "runs", "diff",
                     "--provenance", "plain", "plain"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_run_provenance_flag_registers_capsules(self, tmp_path,
                                                    capsys):
        runs = tmp_path / "runs"
        small_run(observability=Observability(provenance=True),
                  runs_dir=runs, run_name="shown")
        assert main(["--runs-dir", str(runs), "runs", "show",
                     "shown"]) == 0
        out = capsys.readouterr().out
        assert "provenance" in out and "capsules" in out


class TestSortedCapsules:
    def test_none_recorder_yields_empty(self):
        assert sorted_capsules(None) == ()

    def test_order_is_deterministic(self, prov_run):
        capsules = prov_run.provenance
        assert tuple(capsules) == sorted_capsules(_recorder_of(capsules))


def _recorder_of(capsules):
    recorder = ProvenanceRecorder()
    recorder.adopt([dict(c) for c in capsules])
    return recorder
