"""Tests for scanning-campaign modelling and suppression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.rng import substream
from repro.signals.series import TimeSeries
from repro.telescope.campaigns import (
    Campaign,
    CampaignSchedule,
    apply_campaigns,
    campaign_suppression_mask,
)
from repro.telescope.counter import unique_source_series
from repro.ioda.detectors import DETECTOR_CONFIGS
from repro.signals.kinds import SignalKind
from repro.stream.detect import StreamingAlertDetector
from repro.timeutils.timestamps import DAY, HOUR, TimeRange

from tests import oracles


def flat_series(n_bins=2000, level=50.0):
    return TimeSeries(0, 300, np.full(n_bins, level))


class TestCampaign:
    def test_multiplier_validated(self):
        with pytest.raises(ConfigurationError):
            Campaign(span=TimeRange(0, HOUR), multiplier=1.0)

    def test_schedule_deterministic(self):
        period = TimeRange(0, 60 * DAY)
        a = CampaignSchedule(seed=4).campaigns(period)
        b = CampaignSchedule(seed=4).campaigns(period)
        assert [(c.span, c.multiplier) for c in a] == \
            [(c.span, c.multiplier) for c in b]

    def test_schedule_rate(self):
        period = TimeRange(0, 70 * DAY)  # 10 weeks
        campaigns = CampaignSchedule(
            seed=4, rate_per_week=1.0).campaigns(period)
        assert 3 <= len(campaigns) <= 22

    def test_zero_rate(self):
        period = TimeRange(0, 70 * DAY)
        assert CampaignSchedule(
            seed=4, rate_per_week=0.0).campaigns(period) == []


class TestApplyCampaigns:
    def test_inflation_applied_in_span(self):
        series = flat_series()
        campaign = Campaign(span=TimeRange(30000, 60000), multiplier=2.0)
        inflated = apply_campaigns(series, [campaign])
        assert inflated.at(45000) == 100.0
        assert inflated.at(0) == 50.0
        # Original untouched.
        assert series.at(45000) == 50.0

    def test_disjoint_campaign_ignored(self):
        series = flat_series(n_bins=10)
        campaign = Campaign(span=TimeRange(10**7, 10**7 + HOUR),
                            multiplier=3.0)
        inflated = apply_campaigns(series, [campaign])
        assert np.array_equal(inflated.values, series.values)


class TestSuppression:
    def test_spikes_flagged(self):
        series = flat_series()
        campaign = Campaign(span=TimeRange(200 * 300, 400 * 300),
                            multiplier=3.0)
        inflated = apply_campaigns(series, [campaign])
        mask = campaign_suppression_mask(inflated)
        assert mask[250:350].all()
        assert not mask[:150].any()
        assert not mask[500:].any()

    def test_campaign_end_false_alert_without_suppression(self):
        """The failure mode: a campaign ending trips the drop detector
        because the baseline got dragged up; excluding flagged bins from
        the baseline removes the false alert."""
        rng = substream(9, "campaign-test")
        window = TimeRange(0, 16 * DAY)
        n_bins = 16 * DAY // 300
        series = unique_source_series(
            window, 60.0, np.ones(n_bins), 0, rng, overdispersion=50.0)
        # Strong 4-day campaign ending mid-window.
        campaign = Campaign(
            span=TimeRange(8 * DAY, 12 * DAY), multiplier=6.0)
        inflated = apply_campaigns(series, [campaign])
        config = DETECTOR_CONFIGS[SignalKind.TELESCOPE]

        def detect(series):
            detector = StreamingAlertDetector(config, series.width)
            return detector.feed(*series.arrays())

        naive_alerts = [a for a in detect(inflated)
                        if a.time >= 12 * DAY]
        assert naive_alerts, "campaign end should trip the naive detector"
        # Suppress flagged bins before detection (replace with NaN-free
        # interpolation: reuse the last unflagged value).
        mask = campaign_suppression_mask(inflated)
        cleaned_values = inflated.values.copy()
        last_clean = cleaned_values[0]
        for i in range(len(cleaned_values)):
            if mask[i]:
                cleaned_values[i] = last_clean
            else:
                last_clean = cleaned_values[i]
        cleaned = TimeSeries(inflated.start, inflated.width,
                             cleaned_values)
        cleaned_alerts = [a for a in detect(cleaned)
                          if a.time >= 12 * DAY]
        assert len(cleaned_alerts) < len(naive_alerts)

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            campaign_suppression_mask(flat_series(), window_bins=0)


class TestSuppressionMaskOracle:
    @settings(max_examples=120, deadline=None)
    @given(values=st.lists(
               st.one_of(st.integers(0, 400).map(float),
                         st.floats(-1e9, 1e9, allow_nan=False)),
               max_size=300),
           window_bins=st.integers(1, 40),
           spike_factor=st.floats(1.0, 3.0))
    def test_matches_the_rolling_median_oracle(self, values, window_bins,
                                               spike_factor):
        series = TimeSeries(0, 300, np.array(values, dtype=np.float64))
        got = campaign_suppression_mask(series, window_bins, spike_factor)
        want = oracles.campaign_suppression_mask(series, window_bins,
                                                 spike_factor)
        assert got.tobytes() == want.tobytes()

    def test_matches_the_oracle_on_a_campaign(self):
        rng = substream(3, "campaign-oracle")
        series = TimeSeries(0, 300, rng.poisson(60.0, 3000).astype(float))
        campaign = Campaign(span=TimeRange(600 * 300, 700 * 300),
                            multiplier=2.5)
        inflated = apply_campaigns(series, [campaign])
        got = campaign_suppression_mask(inflated)
        assert got.any()
        assert got.tobytes() \
            == oracles.campaign_suppression_mask(inflated).tobytes()
