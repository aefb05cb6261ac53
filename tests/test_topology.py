"""Tests for the topology generator and operator-statistics datasets."""

import numpy as np
import pytest

from repro.countries.registry import default_registry
from repro.errors import ConfigurationError
from repro.net.asn import ASRole
from repro.net.ipv4 import IPv4Address
from repro.rng import substream
from repro.topology.eyeballs import EyeballEstimates
from repro.topology.generator import TopologyGenerator, WorldTopology
from repro.topology.geolocation import GeoDatabase
from repro.topology.metrics import compute_state_shares
from repro.topology.prefix2as import Prefix2ASSnapshot
from repro.topology.state_owned import StateOwnedASList
from tests import oracles


@pytest.fixture(scope="module")
def world() -> WorldTopology:
    return TopologyGenerator(seed=7).generate()


class TestTopologyGenerator:
    def test_every_country_has_a_network(self, world, registry):
        assert len(world) == len(registry)
        for country in registry:
            assert country.iso2 in world

    def test_deterministic(self, world):
        again = TopologyGenerator(seed=7).generate()
        for network in world:
            other = again.get(network.country.iso2)
            assert other.total_slash24s == network.total_slash24s
            assert [int(a.asn) for a in other.ases] == \
                [int(a.asn) for a in network.ases]

    def test_different_seed_differs(self, world):
        other = TopologyGenerator(seed=8).generate()
        totals = [n.total_slash24s for n in world]
        other_totals = [n.total_slash24s for n in other]
        assert totals != other_totals

    def test_no_overlapping_allocations(self, world):
        seen = set()
        for network_as in world.all_ases():
            for prefix in network_as.prefixes:
                for block in prefix.slash24s():
                    assert block not in seen
                    seen.add(block)

    def test_asns_unique(self, world):
        asns = [int(a.asn) for a in world.all_ases()]
        assert len(asns) == len(set(asns))

    def test_shares_sum_to_one(self, world):
        for network in world:
            total = sum(a.eyeball_share for a in network.ases)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_state_ownership_tracks_hint(self, world, registry):
        high = [c.iso2 for c in registry if c.state_isp_hint >= 0.8]
        low = [c.iso2 for c in registry if c.state_isp_hint <= 0.15]
        high_share = np.mean([
            world.get(i).state_owned_slash24_fraction() for i in high])
        low_share = np.mean([
            world.get(i).state_owned_slash24_fraction() for i in low])
        assert high_share > low_share + 0.3

    def test_regions_share_simplex(self, world):
        for network in world:
            assert len(network.regions) >= 3
            assert sum(r.share for r in network.regions) == \
                pytest.approx(1.0, abs=1e-9)

    def test_india_has_many_regions(self, world):
        assert len(world.get("IN").regions) == 12

    def test_find_as(self, world):
        network_as = next(world.all_ases())
        assert world.find_as(int(network_as.asn)) is network_as
        assert world.find_as(1) is None

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            TopologyGenerator(seed=1, address_scale=0.0)

    def test_roles_present(self, world):
        roles = {a.record.role for a in world.all_ases()}
        assert ASRole.ACCESS in roles
        assert ASRole.TRANSIT in roles


class TestOperatorDatasets:
    def test_prefix2as_lookup(self, world):
        snapshot = Prefix2ASSnapshot.from_topology(world, seed=7,
                                                   miss_rate=0.0,
                                                   moas_rate=0.0)
        network_as = next(world.all_ases())
        prefix = network_as.prefixes[0]
        assert snapshot.origin(prefix) == (int(network_as.asn),)
        address = IPv4Address(prefix.network + 1)
        assert snapshot.lookup(address) == int(network_as.asn)

    def test_prefix2as_miss_rate(self, world):
        full = Prefix2ASSnapshot.from_topology(world, seed=7, miss_rate=0.0)
        lossy = Prefix2ASSnapshot.from_topology(world, seed=7,
                                                miss_rate=0.2)
        assert len(lossy) < len(full)

    def test_geolocation_mostly_correct(self, world):
        geo = GeoDatabase.from_topology(world, seed=7, error_rate=0.0)
        for network in world:
            prefix = network.ases[0].prefixes[0]
            assert geo.country_of_prefix(prefix) == network.country.iso2

    def test_geolocation_error_rate(self, world):
        geo = GeoDatabase.from_topology(world, seed=7, error_rate=0.5)
        wrong = 0
        total = 0
        for network in world:
            for network_as in network.ases:
                for prefix in network_as.prefixes:
                    total += 1
                    if geo.country_of_prefix(prefix) != network.country.iso2:
                        wrong += 1
        assert 0.35 < wrong / total < 0.65

    def test_eyeballs_coverage_floor(self, world):
        estimates = EyeballEstimates.from_topology(
            world, seed=7, coverage_floor=0.5)
        # Only dominant ASes are measured under an absurd floor.
        assert len(estimates) < sum(1 for _ in world.all_ases()) / 4

    def test_state_owned_list_recall(self, world):
        full = StateOwnedASList.from_topology(
            world, seed=7, recall=1.0, false_positive_rate=0.0)
        truth = {int(a.asn) for a in world.all_ases() if a.state_owned}
        assert set(full) == truth

    def test_state_shares_close_to_ground_truth(self, world):
        seed = 7
        shares = compute_state_shares(
            Prefix2ASSnapshot.from_topology(world, seed),
            GeoDatabase.from_topology(world, seed),
            StateOwnedASList.from_topology(world, seed),
            EyeballEstimates.from_topology(world, seed))
        truth = oracles.ground_truth_state_shares(world)
        errors = [
            abs(shares[iso2].address_space_fraction
                - truth[iso2].address_space_fraction)
            for iso2 in truth if iso2 in shares]
        assert np.mean(errors) < 0.08

    def test_state_controlled_flag(self, world):
        seed = 7
        shares = compute_state_shares(
            Prefix2ASSnapshot.from_topology(world, seed),
            GeoDatabase.from_topology(world, seed),
            StateOwnedASList.from_topology(world, seed),
            EyeballEstimates.from_topology(world, seed))
        for share in shares.values():
            assert share.state_controlled == \
                (share.address_space_fraction > 0.5)
