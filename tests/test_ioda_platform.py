"""Tests for the IODA platform's signal generation."""

import numpy as np
import pytest

from repro.ioda.platform import MAX_PROBED_BLOCKS, IODAPlatform
from repro.probing.blocks import sample_blocks
from repro.probing.scheduler import ActiveProbingRun
from repro.resilience import FaultPlan, inject
from repro.rng import substream
from repro.signals.entities import Entity, EntityScope
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import DAY, HOUR, TimeRange, utc
from repro.world.scenario import STUDY_PERIOD, ScenarioConfig, \
    ScenarioGenerator


def _event(scenario, iso2, pool="shutdowns", predicate=None):
    events = getattr(scenario, pool)
    for event in events:
        if event.country_iso2 != iso2:
            continue
        if not STUDY_PERIOD.contains(event.span.start):
            continue
        if predicate is None or predicate(event):
            return event
    raise AssertionError(f"no matching event for {iso2}")


def _window(event, lead=DAY, tail=12 * HOUR):
    return TimeRange(event.span.start - lead, event.span.end + tail)


class TestCountrySignals:
    def test_all_three_signals_produced(self, platform, scenario):
        event = _event(scenario, "SY")
        signals = platform.signals(Entity.country("SY"), _window(event))
        assert set(signals) == set(SignalKind)
        for kind, series in signals.items():
            assert series.width == kind.bin_width
            assert len(series) > 0

    def test_total_shutdown_drops_all_signals(self, platform, scenario):
        event = _event(scenario, "SY",
                       predicate=lambda e: e.severity == 1.0
                       and not e.mobile_only
                       and e.scope is EntityScope.COUNTRY)
        window = _window(event)
        mid = event.span.start + event.span.duration // 2
        for kind, series in platform.signals(Entity.country("SY"),
                                            window).items():
            baseline = np.median(
                series.slice(TimeRange(window.start,
                                       event.span.start)).values)
            assert series.at(mid) < 0.3 * baseline, kind

    def test_mobile_only_invisible_to_probing(self, platform, scenario):
        event = _event(
            scenario, None if False else "IR", "shutdowns",
            predicate=lambda e: e.mobile_only
            and e.scope is EntityScope.COUNTRY)
        window = _window(event)
        series = platform.signal(Entity.country(event.country_iso2),
                                 SignalKind.ACTIVE_PROBING, window)
        pre = series.slice(
            TimeRange(window.start, event.span.start)).values
        during = series.slice(event.span).values
        assert during.mean() > 0.9 * np.median(pre)

    def test_partial_severity_partial_drop(self, platform, scenario):
        from repro.world.disruptions import Cause
        undamped = (Cause.CABLE_CUT, Cause.MISCONFIGURATION,
                    Cause.NATURAL_DISASTER)
        event = next(
            e for e in scenario.outages
            if STUDY_PERIOD.contains(e.span.start)
            and 0.4 <= e.severity <= 0.8
            and e.span.duration >= 2 * HOUR
            and e.cause in undamped)
        window = _window(event)
        series = platform.signal(Entity.country(event.country_iso2),
                                 SignalKind.BGP, window)
        baseline = np.median(series.slice(
            TimeRange(window.start, event.span.start)).values)
        mid = event.span.start + event.span.duration // 2
        observed_drop = 1.0 - series.at(mid) / baseline
        assert observed_drop == pytest.approx(event.severity, abs=0.15)

    def test_signals_deterministic_across_queries(self, platform, scenario):
        event = _event(scenario, "SY")
        window = _window(event)
        first = platform.signal(Entity.country("SY"), SignalKind.TELESCOPE,
                                window)
        second = platform.signal(Entity.country("SY"),
                                 SignalKind.TELESCOPE, window)
        assert np.array_equal(first.values, second.values)

    def test_repeat_query_returns_a_private_array(self, platform, scenario):
        window = _window(_event(scenario, "SY"))
        first = platform.signal(Entity.country("SY"), SignalKind.TELESCOPE,
                                window)
        second = platform.signal(Entity.country("SY"),
                                 SignalKind.TELESCOPE, window)
        assert first.values.tobytes() == second.values.tobytes()
        assert first.values is not second.values

    def test_caller_mutation_cannot_change_later_queries(self, platform,
                                                         scenario):
        window = _window(_event(scenario, "SY"))
        victim = platform.signal(Entity.country("SY"), SignalKind.BGP,
                                 window)
        pristine = victim.values.tobytes()
        victim.values[:] = -1.0
        again = platform.signal(Entity.country("SY"), SignalKind.BGP,
                                window)
        assert again.values.tobytes() == pristine

    def test_inert_fault_plan_reproduces_clean_bytes(self, platform,
                                                     scenario):
        window = _window(_event(scenario, "SY"))
        entity = Entity.country("SY")
        clean = platform.signal(entity, SignalKind.TELESCOPE, window)
        plan = FaultPlan.parse("fail_first=1;sites=no.such.site")
        with inject(plan):
            chaotic = platform.signal(entity, SignalKind.TELESCOPE, window)
        assert chaotic.values.tobytes() == clean.values.tobytes()

    def test_unrelated_country_flat_during_event(self, platform, scenario):
        event = _event(scenario, "SY")
        window = _window(event)
        series = platform.signal(Entity.country("JP"), SignalKind.BGP,
                                 window)
        assert series.values.min() > 0.95 * series.values.max()


class TestScopedSignals:
    def test_region_signal_scales_down(self, platform, scenario):
        window = TimeRange(STUDY_PERIOD.start,
                           STUDY_PERIOD.start + 6 * HOUR)
        network = scenario.topology.get("IN")
        region = network.regions[0]
        country_series = platform.signal(
            Entity.country("IN"), SignalKind.BGP, window)
        region_series = platform.signal(
            Entity.region("IN", region.name), SignalKind.BGP, window)
        assert region_series.values.mean() < \
            0.6 * country_series.values.mean()

    def test_region_event_visible_in_region_not_country(
            self, platform, scenario):
        event = _event(scenario, "IN",
                       predicate=lambda e: e.scope is EntityScope.REGION
                       and not e.mobile_only)
        window = _window(event)
        region_series = platform.signal(
            Entity.region("IN", event.region_name), SignalKind.BGP, window)
        pre = np.median(region_series.slice(
            TimeRange(window.start, event.span.start)).values)
        mid = event.span.start + event.span.duration // 2
        assert region_series.at(mid) < 0.3 * pre
        country_series = platform.signal(
            Entity.country("IN"), SignalKind.BGP, window)
        pre_country = np.median(country_series.slice(
            TimeRange(window.start, event.span.start)).values)
        assert country_series.at(mid) > 0.7 * pre_country

    def test_as_signal(self, platform, scenario):
        network = scenario.topology.get("SY")
        asn = int(network.ases[0].asn)
        window = TimeRange(STUDY_PERIOD.start,
                           STUDY_PERIOD.start + 3 * HOUR)
        series = platform.signal(Entity.asn(asn), SignalKind.BGP, window)
        assert len(series) == 36

    def test_as_signal_is_the_scaled_country_signal(self, platform,
                                                    scenario):
        """An AS's signal is its country's, scaled by address share."""
        network = scenario.topology.get("SY")
        network_as = network.ases[0]
        window = TimeRange(STUDY_PERIOD.start,
                           STUDY_PERIOD.start + 3 * HOUR)
        series = platform.signal(Entity.asn(int(network_as.asn)),
                                 SignalKind.BGP, window)
        country = platform.signal(Entity.country("SY"), SignalKind.BGP,
                                  window)
        share = network_as.num_slash24s / max(1, network.total_slash24s)
        expected = np.round(country.values * max(share, 0.01))
        assert series.values.tobytes() == expected.tobytes()


class TestArtifacts:
    def test_artifact_depresses_one_signal_globally(self, platform,
                                                    scenario):
        artifact = scenario.artifacts[0]
        window = artifact.span.expand(before=6 * HOUR, after=2 * HOUR)
        for iso2 in ("JP", "BR"):
            series = platform.signal(Entity.country(iso2), artifact.signal,
                                     window)
            pre = np.median(series.slice(
                TimeRange(window.start, artifact.span.start)).values)
            mid = artifact.span.start + artifact.span.duration // 2
            assert series.at(mid) < (1.0 - 0.5 * artifact.depth) * pre


class TestRegionProbing:
    """A region probes the first blocks of its country's one probing
    run; its series must be the one a run over those blocks alone
    gives, bit for bit."""

    @pytest.mark.parametrize("seed", [2023, 7])
    def test_region_series_equals_a_dedicated_run(self, scenario, seed):
        world = (scenario if seed == scenario.seed else ScenarioGenerator(
            ScenarioConfig(seed=seed, years=(2018,))).generate())
        platform = IODAPlatform(world)
        kind = SignalKind.ACTIVE_PROBING
        fixed = TimeRange(utc(2018, 3, 1), utc(2018, 3, 15))
        checked = 0
        for iso2, network in sorted(world.topology.networks.items()):
            blocks, rates = sample_blocks(
                network, substream(world.seed, "probing-blocks", iso2),
                max_blocks=MAX_PROBED_BLOCKS)
            if not len(rates):
                continue
            # A window around the country's first disruption exercises
            # partial ground truth; the fixed one, quiet rounds.
            windows = [fixed] + [
                _window(d) for d in world.country_disruptions(iso2)[:1]]
            for region in network.regions:
                keep = min(len(rates), max(8, int(len(rates) * region.share)))
                dedicated = ActiveProbingRun(blocks[:keep], rates[:keep])
                for window in windows:
                    got = platform.signal(Entity.region(iso2, region.name),
                                          kind, window)
                    up = platform._up_fraction(
                        platform._country(iso2), kind, window,
                        kind.bin_width, region.name)
                    want = dedicated.up_count_series(
                        window, up, substream(world.seed, "platform",
                                              kind.value, iso2, region.name,
                                              window.start))
                    factor = platform._artifact_multiplier(
                        kind, window, kind.bin_width)
                    if factor is not None:
                        want.values[:] = np.round(want.values * factor)
                    assert got.values.tobytes() == want.values.tobytes(), \
                        (iso2, region.name, window)
                    checked += 1
        assert checked > 500
