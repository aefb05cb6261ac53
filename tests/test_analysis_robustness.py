"""Tests for the robustness checks and subnational statistics."""

import pytest

from repro.analysis.robustness import (
    weekly_mobilization_table,
    within_country_rates,
)
from repro.analysis.subnational import subnational_stats


class TestWeeklyAggregation:
    @pytest.fixture(scope="class")
    def weekly(self, pipeline_result):
        return weekly_mobilization_table(
            pipeline_result.merged, pipeline_result.coups,
            pipeline_result.elections, pipeline_result.protests)

    def test_shutdown_elevation_survives_weekly(self, weekly):
        """Footnote 11: week-level aggregation produces the same result."""
        assert weekly.risk_ratio("election") > 2
        assert weekly.risk_ratio("coup") > 20
        assert weekly.risk_ratio("protest") > 2

    def test_weekly_rates_higher_than_daily(self, weekly, pipeline_result):
        """A week is a coarser cell, so conditional rates rise but the
        qualitative picture is unchanged."""
        from repro.analysis.mobilization import mobilization_table
        daily = mobilization_table(
            pipeline_result.merged, pipeline_result.coups,
            pipeline_result.elections, pipeline_result.protests)
        weekly_rate = weekly.rates["election"][0].rate_given_condition
        daily_rate = daily.rates["election"][0].rate_given_condition
        # Coarser cells raise the conditional rate in expectation, but a
        # single seed can land a hair under; only a clear drop would mean
        # the aggregation is wrong.
        assert weekly_rate >= 0.9 * daily_rate


class TestWithinCountry:
    @pytest.fixture(scope="class")
    def within(self, pipeline_result):
        return within_country_rates(
            pipeline_result.merged, pipeline_result.coups,
            pipeline_result.elections, pipeline_result.protests)

    def test_mobilization_predicts_within_shutdown_countries(self, within):
        """Footnote 11: the effect is not a cross-country artifact —
        among shutdown-prone countries, event days still carry far more
        shutdown risk than ordinary days."""
        assert within.risk_ratio("coup") > 10
        assert within.risk_ratio("protest") > 2

    def test_universe_restricted(self, within, pipeline_result):
        from repro.analysis.mobilization import mobilization_table
        daily = mobilization_table(
            pipeline_result.merged, pipeline_result.coups,
            pipeline_result.elections, pipeline_result.protests)
        # Fewer countries => strictly fewer cells than the full table.
        assert (within.rates["election"][0].condition_cells
                + within.rates["election"][0].other_cells) < \
            (daily.rates["election"][0].condition_cells
             + daily.rates["election"][0].other_cells)


class TestSubnational:
    def test_india_concentration(self, pipeline_result):
        stats = subnational_stats(pipeline_result.kio_events,
                                  pipeline_result.merged.registry)
        assert stats.n_subnational_full_network > 50
        # The paper: 85% of subnational shutdowns in India, 72% mobile.
        assert stats.top_country_iso2 == "IN"
        assert stats.top_country_fraction > 0.7
        assert 0.5 < stats.top_country_mobile_only_fraction < 0.9

    def test_rows_render(self, pipeline_result):
        stats = subnational_stats(pipeline_result.kio_events,
                                  pipeline_result.merged.registry)
        assert len(stats.rows()) == 3

    def test_empty_input(self, registry):
        stats = subnational_stats([], registry)
        assert stats.n_subnational_full_network == 0
