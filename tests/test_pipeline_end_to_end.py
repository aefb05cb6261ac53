"""End-to-end integration tests over the full pipeline.

These assert the headline *shapes* of the paper against the complete run:
who wins, by roughly what factor, and where the qualitative crossovers
fall.  Exact values are recorded in EXPERIMENTS.md.
"""

import time

import numpy as np
import pytest

from repro.analysis import (
    analyze_temporal,
    group_country_years,
    institution_distributions,
    kio_trends,
    mobilization_table,
    observability_table,
    summarize_merged,
)
from repro.analysis.country_year import CountryYearGroup
from repro.core.pipeline import ReproPipeline
from repro.signals.entities import EntityScope
from repro.world.scenario import STUDY_PERIOD, ScenarioConfig

YEARS = [2018, 2019, 2020, 2021]


class TestGroundTruthRecovery:
    def test_labels_agree_with_ground_truth(self, pipeline_result):
        """The pipeline's shutdown/outage labels, derived purely from
        observed data, must agree with ground truth for nearly all
        events."""
        scenario = pipeline_result.scenario
        merged = pipeline_result.merged
        agreements = 0
        total = 0
        for event in merged.labeled:
            record = event.record
            overlapping = [
                d for d in scenario.all_disruptions()
                if d.country_iso2 == record.country_iso2
                and d.span.overlaps(record.span.expand(
                    before=3600, after=3600))]
            if not overlapping:
                continue
            truth = max(overlapping, key=lambda d: d.severity)
            total += 1
            if truth.intentional == event.is_shutdown:
                agreements += 1
        assert total > 0.9 * len(merged.labeled)
        assert agreements / total > 0.9

    def test_detection_recall_for_blackouts(self, pipeline_result):
        """Nearly every non-mobile country-level blackout is curated."""
        scenario = pipeline_result.scenario
        records = [r for r in pipeline_result.curated_records
                   if r.scope is EntityScope.COUNTRY]
        spans_by_country = {}
        for record in records:
            spans_by_country.setdefault(
                record.country_iso2, []).append(record.span)
        truth = [d for d in scenario.disruptions_in(STUDY_PERIOD)
                 if d.scope is EntityScope.COUNTRY and not d.mobile_only
                 and d.severity >= 0.9 and d.span.duration >= 3600]
        detected = sum(
            1 for d in truth
            if any(span.overlaps(d.span)
                   for span in spans_by_country.get(d.country_iso2, [])))
        assert detected / len(truth) > 0.9


class TestHeadlineShapes:
    def test_table2_shape(self, pipeline_result):
        table = summarize_merged(pipeline_result.merged)
        assert table.outage_total > 2.5 * table.ioda_shutdown_total
        assert table.n_shutdown_countries >= 15
        assert table.n_outage_countries >= 120

    def test_table3_shape(self, pipeline_result):
        counts = group_country_years(
            pipeline_result.merged, YEARS).counts()
        assert counts[CountryYearGroup.SHUTDOWNS] < \
            counts[CountryYearGroup.OUTAGES] < \
            counts[CountryYearGroup.NEITHER]

    def test_figure4_shape(self, pipeline_result):
        table = group_country_years(pipeline_result.merged, YEARS)
        dists = institution_distributions(
            table, pipeline_result.merged.registry, pipeline_result.vdem,
            pipeline_result.worldbank)
        libdem = dists["liberal_democracy"]
        assert libdem.median(CountryYearGroup.SHUTDOWNS) < 0.3
        assert libdem.median(CountryYearGroup.NEITHER) > 0.45

    def test_table4_shape(self, pipeline_result):
        table = mobilization_table(
            pipeline_result.merged, pipeline_result.coups,
            pipeline_result.elections, pipeline_result.protests)
        assert table.risk_ratio("coup") > table.risk_ratio("election")
        assert table.risk_ratio("election") > 3
        assert table.risk_ratio("protest") > 3

    def test_figures_10_to_15_shape(self, pipeline_result):
        analysis = analyze_temporal(pipeline_result.merged)
        shutdowns, outages = analysis.shutdowns, analysis.outages
        assert shutdowns.durations_h.median > outages.durations_h.median
        assert shutdowns.intervals_days.median < 5
        assert outages.intervals_days.median > 20
        assert shutdowns.frac_on_hour_local > 3 * outages.frac_on_hour_local
        assert shutdowns.weekday_pdf[4] < 1 / 7 < max(shutdowns.weekday_pdf)

    def test_figure16_shape(self, pipeline_result):
        table = observability_table(pipeline_result.merged)
        assert table.shutdown_all_pct > table.outage_all_pct + 15

    def test_figure2_shape(self, pipeline_result):
        trends = kio_trends(pipeline_result.kio_events)
        peak_year = max(trends.totals, key=trends.totals.get)
        assert peak_year >= 2018


class TestPipelineMechanics:
    def test_cache_reload_is_identical(self, pipeline_result, tmp_path):
        from repro import io
        path = tmp_path / "records.json"
        io.dump_records(pipeline_result.curated_records, path)
        assert io.load_records(path) == pipeline_result.curated_records

    def test_stages_runnable_independently(self):
        pipeline = ReproPipeline(
            scenario_config=ScenarioConfig(seed=99))
        scenario = pipeline.build_scenario()
        kio = pipeline.compile_kio(scenario)
        assert kio
        assert scenario.seed == 99

    def test_pipeline_deterministic_given_cache(self, pipeline_result):
        ids = [r.record_id for r in pipeline_result.curated_records]
        assert len(ids) == len(set(ids))
        starts = [r.span.start for r in pipeline_result.curated_records]
        assert starts == sorted(starts)
