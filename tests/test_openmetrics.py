"""Histogram percentiles and the OpenMetrics text exposition.

The acceptance bar:

- :meth:`Histogram.percentiles` answers several quantiles from one
  bucket walk with the same semantics the per-quantile
  :meth:`Histogram.percentile` always had: empty histograms report
  ``None``, the overflow bucket reports the observed maximum, and
  interpolated values clamp to the observed ``[min, max]``;
- ``to_openmetrics()`` renders a lintable Prometheus text exposition:
  ``repro_``-prefixed names, ``_total`` counters, cumulative
  ``_bucket{le=...}`` plus ``_sum``/``_count`` histograms, escaped
  labels, deterministic ordering, and the ``# EOF`` terminator.
"""

import json

import pytest

import repro.api as api
from repro.cli import main
from repro.obs import MetricsRegistry, snapshot_to_openmetrics
from repro.obs.metrics import Histogram
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))


class TestPercentiles:
    def test_empty_histogram_has_no_percentiles(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        assert histogram.percentiles((50, 90, 99)) \
            == {50: None, 90: None, 99: None}
        assert histogram.percentile(50) is None

    def test_single_value_is_every_percentile(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        histogram.observe(1.5)
        values = histogram.percentiles((1, 50, 99))
        assert values == {1: 1.5, 50: 1.5, 99: 1.5}

    def test_batch_matches_per_quantile_calls(self):
        histogram = Histogram()
        for i in range(200):
            histogram.observe(0.001 * (i + 1) * 7 % 5)
        qs = (1, 10, 25, 50, 75, 90, 99, 99.9)
        batch = histogram.percentiles(qs)
        assert batch == {q: histogram.percentile(q) for q in qs}

    def test_unsorted_quantiles_keyed_correctly(self):
        histogram = Histogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            histogram.observe(value)
        shuffled = histogram.percentiles((99, 25, 75))
        in_order = histogram.percentiles((25, 75, 99))
        assert shuffled == in_order
        assert shuffled[25] <= shuffled[75] <= shuffled[99]

    def test_overflow_bucket_reports_maximum(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(0.5)
        histogram.observe(100.0)
        assert histogram.percentiles((99,))[99] == 100.0

    def test_values_clamped_to_observed_range(self):
        # One observation in a wide bucket: interpolation would land
        # mid-bucket, but no value outside [min, max] was ever seen.
        histogram = Histogram(buckets=(100.0,))
        histogram.observe(2.0)
        histogram.observe(3.0)
        values = histogram.percentiles((10, 50, 90))
        assert all(2.0 <= v <= 3.0 for v in values.values())

    def test_summary_uses_the_shared_walk(self):
        histogram = Histogram()
        for value in (0.2, 0.4, 0.6, 0.8, 2.0):
            histogram.observe(value)
        summary = histogram.summary()
        quantiles = histogram.percentiles((50, 90, 99))
        assert summary["p50"] == round(quantiles[50], 6)
        assert summary["p90"] == round(quantiles[90], 6)
        assert summary["p99"] == round(quantiles[99], 6)

    def test_percentiles_survive_merge(self):
        a, b = Histogram(buckets=(1.0, 2.0)), Histogram(buckets=(1.0, 2.0))
        for value in (0.5, 1.5):
            a.observe(value)
        b.merge_summary(a.summary())
        assert b.percentiles((50,)) == a.percentiles((50,))


def _sample_registry():
    metrics = MetricsRegistry()
    metrics.counter("curation.records", country="SY").inc(5)
    metrics.counter("curation.records", country="IN").inc(7)
    metrics.gauge("exec.shards.total").set(8.0)
    histogram = metrics.histogram("shard.seconds", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        histogram.observe(value)
    return metrics


class TestOpenMetrics:
    def test_counters_gain_total_suffix(self):
        text = _sample_registry().to_openmetrics()
        assert "# TYPE repro_curation_records counter" in text
        assert 'repro_curation_records_total{country="SY"} 5' in text
        assert 'repro_curation_records_total{country="IN"} 7' in text

    def test_gauges_keep_bare_name(self):
        text = _sample_registry().to_openmetrics()
        assert "# TYPE repro_exec_shards_total gauge" in text
        assert "repro_exec_shards_total 8" in text

    def test_histogram_buckets_are_cumulative(self):
        lines = _sample_registry().to_openmetrics().splitlines()
        buckets = [l for l in lines
                   if l.startswith("repro_shard_seconds_bucket")]
        assert [int(l.rsplit(" ", 1)[1]) for l in buckets] == [1, 2, 3]
        assert 'le="+Inf"' in buckets[-1]
        assert "repro_shard_seconds_count 3" in lines
        assert any(l.startswith("repro_shard_seconds_sum ")
                   for l in lines)

    def test_terminator_and_determinism(self):
        metrics = _sample_registry()
        text = metrics.to_openmetrics()
        assert text.endswith("# EOF\n")
        assert text == metrics.to_openmetrics()
        # Families are sorted by metric name; TYPE precedes samples.
        families = [l.split()[2] for l in text.splitlines()
                    if l.startswith("# TYPE")]
        assert families == sorted(families)

    def test_label_values_escaped(self):
        text = snapshot_to_openmetrics(
            {"counters": {'odd.series{note=a"b\\c}': 1}})
        assert 'note="a\\"b\\\\c"' in text

    def test_dotted_names_sanitized(self):
        text = snapshot_to_openmetrics(
            {"counters": {"platform.signal.cache.hits": 3}})
        assert "repro_platform_signal_cache_hits_total 3" in text

    def test_accepts_journal_metrics_event(self):
        # The journal's `metrics` event is a snapshot plus a `type`
        # key; the exposition must tolerate the extra key.
        snapshot = _sample_registry().snapshot()
        snapshot["type"] = "metrics"
        text = snapshot_to_openmetrics(snapshot)
        assert "repro_curation_records_total" in text

    def test_empty_snapshot_is_just_eof(self):
        assert snapshot_to_openmetrics({}) == "# EOF\n"

    def test_matches_registry_snapshot_round_trip(self):
        metrics = _sample_registry()
        assert metrics.to_openmetrics() \
            == snapshot_to_openmetrics(metrics.snapshot())


#: Route-shaped label values the serving layer can legally produce —
#: query strings with commas/equals, quotes, backslashes, braces,
#: newlines, and trailing escapes.
HOSTILE_VALUES = [
    "/events?cursor=djE6NTA6YWJj",
    "/events?country=SY,IR&limit=25",
    'say "hi"',
    "back\\slash",
    "tricky\\",
    "brace}value",
    "multi\nline",
    "a=b,c=d}e\\f\ng",
    "",
]


class TestHostileLabels:
    def test_series_key_round_trips_hostile_values(self):
        from repro.obs import series_key, split_series_key
        for value in HOSTILE_VALUES:
            key = series_key("serve.requests",
                             {"route": value, "status": "200"})
            name, labels = split_series_key(key)
            assert name == "serve.requests"
            assert labels == {"route": value, "status": "200"}, value

    def test_hostile_values_cannot_smuggle_clauses(self):
        from repro.obs import split_series_key, series_key
        key = series_key("m", {"a": "x,b=evil"})
        _, labels = split_series_key(key)
        assert labels == {"a": "x,b=evil"}
        assert "b" not in labels

    def test_registry_keeps_hostile_labels_as_one_series(self):
        metrics = MetricsRegistry()
        for _ in range(3):
            metrics.counter("serve.requests",
                            route="/events?cursor=a,b", status=200).inc()
        snapshot = metrics.snapshot()
        assert len(snapshot["counters"]) == 1
        assert list(snapshot["counters"].values()) == [3]

    def test_exposition_escapes_newline_quote_backslash(self):
        metrics = MetricsRegistry()
        metrics.counter("serve.requests",
                        route='a"b\\c\nd', status=200).inc()
        text = metrics.to_openmetrics()
        # The exposition grammar's escapes, not the series-key ones.
        assert 'route="a\\"b\\\\c\\nd"' in text
        assert "\n".join(l for l in text.splitlines()
                         if "route=" in l).count("\n") == 0

    def test_exposition_is_parseable_line_per_sample(self):
        metrics = MetricsRegistry()
        for value in HOSTILE_VALUES:
            metrics.counter("serve.requests", route=value).inc()
        lines = metrics.to_openmetrics().splitlines()
        samples = [l for l in lines if not l.startswith("#")]
        # One line per series: hostile values never split a sample
        # across lines or merge two samples onto one.
        assert len(samples) == len(HOSTILE_VALUES)
        assert all(l.rsplit(" ", 1)[1] == "1" for l in samples)


class TestCliExport:
    @pytest.fixture(scope="class")
    def journal(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("metrics") / "run.jsonl"
        api.run(scenario_config=SMALL_CONFIG, study_period=SMALL_PERIOD,
                observability=api.Observability(journal=path))
        return path

    def test_export_to_stdout(self, journal, capsys):
        assert main(["metrics", "export", str(journal)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert "# TYPE" in out
        assert "repro_" in out

    def test_export_to_file(self, journal, tmp_path, capsys):
        target = tmp_path / "metrics.om"
        assert main(["metrics", "export", str(journal),
                     "--output", str(target)]) == 0
        assert target.read_text(encoding="utf-8").endswith("# EOF\n")

    def test_export_without_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"type": "run_start"}) + "\n",
                        encoding="utf-8")
        assert main(["metrics", "export", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_export_missing_journal_exits_2(self, tmp_path, capsys):
        assert main(["metrics", "export",
                     str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
