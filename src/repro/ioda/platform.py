"""Signal generation: projecting ground truth through the substrates.

:class:`IODAPlatform` is the measurement system.  Given a
:class:`~repro.world.scenario.WorldScenario`, it can produce, for any
entity and observation window, the three signals IODA publishes:

- **BGP** — visible /24s per 5-minute bin, via the vectorized
  :func:`repro.bgp.view.visible_slash24_series` over the entity's
  prefixes.
- **Active Probing** — up /24 blocks per 10-minute round, via
  :class:`repro.probing.scheduler.ActiveProbingRun` over a sampled set of
  non-mobile blocks (mobile networks are invisible to probing, §4).
- **Telescope** — unique source IPs per 5-minute bin, via
  :func:`repro.telescope.counter.unique_source_series`.

Ground truth enters only as per-bin *up fractions*: each disruption
overlapping the window removes its affected share of the entity's address
space for its duration, with the shares differing per signal exactly where
the measurement physics differ (mobile-only events do not move the probing
signal).  Measurement artifacts multiply the affected signal globally;
a query that no artifact of its kind overlaps skips that pass, since the
substrates' counts are integer-valued and would come back unchanged.
Every stage is columnar — up fractions, artifact multipliers, and the
three substrates all produce whole value arrays; no per-bin Python loop
runs between ground truth and a published :class:`TimeSeries`.  The BGP
and probing kernels draw one uniform per (bin, prefix) or (round, block)
cell and do per-cell arithmetic only where a draw can change the count;
``tests/oracles.py`` keeps the dense forms they must match bit for bit.
Each country's probing sample is one :class:`ActiveProbingRun`; a
region probes the sample's first blocks through it, so a country's
belief tables serve all its regions.

Signals are deterministic per (seed, entity, window start): the window
start keys each query's RNG substream, so a repeated query returns equal
values, but two overlapping windows disagree on the bins they share.
Every query generates its series afresh.  ROADMAP.md tracks the
self-consistent world, where each signal becomes a pure function of
(seed, entity, kind, bin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.bgp.view import visible_slash24_series
from repro.errors import SignalError
from repro.probing.blocks import sample_blocks
from repro.probing.scheduler import ActiveProbingRun
from repro.resilience.faults import maybe_fault
from repro.rng import substream
from repro.signals.entities import Entity, EntityScope
from repro.signals.kinds import SignalKind
from repro.signals.series import TimeSeries
from repro.telescope.counter import unique_source_series
from repro.timeutils.timestamps import TimeRange, bin_floor
from repro.topology.generator import CountryNetwork
from repro.world.disruptions import Cause, GroundTruthDisruption
from repro.world.scenario import WorldScenario

__all__ = ["IODAPlatform"]

#: Cause-specific per-signal severity damping.  A power outage leaves many
#: routers announcing from UPS/generator power, so BGP visibility falls far
#: less than data-plane reachability; link-saturating DDoS likewise rarely
#: tears down BGP sessions.  Telescope traffic needs live end hosts, so it
#: follows the data plane.
_SIGNAL_DAMPING: Mapping[Cause, Mapping[SignalKind, float]] = {
    Cause.POWER_OUTAGE: {SignalKind.BGP: 0.45},
    Cause.DDOS: {SignalKind.BGP: 0.35},
}


# Changing these changes signals, so bump exec.cachestore.CACHE_VERSION.
N_FULL_FEED_PEERS = 24
BGP_PEER_MISS_RATE = 0.02
MAX_PROBED_BLOCKS = 128
TELESCOPE_OVERDISPERSION = 4.0


@dataclass
class _CountryCache:
    network: CountryNetwork
    prefix_sizes: Tuple[int, ...]
    #: The country's probing run (``None`` without probeable blocks).
    #: It draws all randomness from the per-query rng, so one run
    #: serves every window and region and keeps its belief-iterate
    #: tables warm.
    probing: Optional[ActiveProbingRun]
    mobile_addr_share: float
    region_shares: Mapping[str, float]
    as_addr_shares: Mapping[int, float]


class IODAPlatform:
    """The simulated IODA measurement platform."""

    def __init__(self, scenario: WorldScenario):
        self._scenario = scenario
        # Every country's cache, its probing-blocks sample included, is
        # built here rather than on first query: each country draws from
        # its own substream, so the values are the same either way, but
        # this way the number of substreams a process draws does not
        # depend on which countries it is asked about.
        self._cache: Dict[str, _CountryCache] = {
            iso2: self._country_cache(iso2, network)
            for iso2, network in scenario.topology.networks.items()}
        # Per-(country, kind, region) disruption impact arrays: the
        # affected share of each disruption is window-independent, so
        # _up_fraction only intersects spans per query (see
        # _disruption_shares).
        self._share_cache: Dict[
            Tuple[str, SignalKind, Optional[str]],
            Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._disruptions_by_country: Dict[
            str, List[GroundTruthDisruption]] = {}
        for disruption in scenario.all_disruptions():
            self._disruptions_by_country.setdefault(
                disruption.country_iso2, []).append(disruption)

    @property
    def scenario(self) -> WorldScenario:
        return self._scenario

    # -- public query interface ------------------------------------------------

    def signal(self, entity: Entity, kind: SignalKind,
               window: TimeRange) -> TimeSeries:
        """One signal for one entity over a window.

        This is the platform's fault-injection site: under an active
        :class:`~repro.resilience.FaultPlan` *and* an open fault scope
        (the retry machinery opens one per attempt of each unit of
        work), a query may raise a typed
        :class:`~repro.errors.TransientSourceError` before any
        computation happens.  Outside a scope the hook is inert, so
        scheduling-time queries never fault.
        """
        maybe_fault("platform.signal")
        iso2 = entity.country_iso2
        if iso2 is None:
            return self._as_signal(entity, kind, window)
        region = (entity.identifier.split("-", 1)[1]
                  if entity.scope is EntityScope.REGION else None)
        return self._country_series(iso2, kind, window, region)

    def signals(self, entity: Entity,
                window: TimeRange) -> Dict[SignalKind, TimeSeries]:
        """All three signals for one entity over a window."""
        return {kind: self.signal(entity, kind, window)
                for kind in SignalKind}

    # -- internals: caches ------------------------------------------------------

    def _country_series(self, iso2: str, kind: SignalKind,
                        window: TimeRange,
                        region_name: Optional[str]) -> TimeSeries:
        """A country/region entity's signal."""
        return self._entity_signal(self._country(iso2), kind, window,
                                   region_name)

    def _country(self, iso2: str) -> _CountryCache:
        return self._cache[iso2.upper()]

    def _country_cache(self, iso2: str,
                       network: CountryNetwork) -> _CountryCache:
        prefix_sizes = tuple(
            prefix.num_slash24s
            for network_as in network.ases
            for prefix in network_as.prefixes)
        total24 = max(1, network.total_slash24s)
        mobile24 = sum(a.num_slash24s for a in network.ases if a.mobile)
        block_rng = substream(self._scenario.seed, "probing-blocks", iso2)
        block_slash24, block_rates = sample_blocks(
            network, block_rng, max_blocks=MAX_PROBED_BLOCKS)
        return _CountryCache(
            network=network,
            prefix_sizes=prefix_sizes,
            probing=(ActiveProbingRun(block_slash24, block_rates)
                     if len(block_rates) else None),
            mobile_addr_share=mobile24 / total24,
            region_shares={r.name: r.share for r in network.regions},
            as_addr_shares={
                int(a.asn): a.num_slash24s / total24
                for a in network.ases},
        )

    # -- internals: up-fraction construction -------------------------------------

    def _up_fraction(self, cache: _CountryCache, kind: SignalKind,
                     window: TimeRange, bin_width: int,
                     region_name: Optional[str]) -> np.ndarray:
        start = bin_floor(window.start, bin_width)
        n_bins = -(-(window.end - start) // bin_width)
        down = np.zeros(n_bins, dtype=np.float64)
        starts, ends, shares = self._disruption_shares(
            cache, kind, region_name)
        # Same half-open overlap test as TimeRange.overlaps, batched.
        for k in np.flatnonzero((starts < window.end)
                                & (ends > window.start)):
            first = max(0, (int(starts[k]) - start) // bin_width)
            last = min(n_bins, -(-(int(ends[k]) - start) // bin_width))
            down[first:last] += shares[k]
        return np.clip(1.0 - down, 0.0, 1.0)

    def _disruption_shares(self, cache: _CountryCache, kind: SignalKind,
                           region_name: Optional[str]
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(start, end, share) arrays of a country's disruptions with a
        nonzero affected share, memoized — the share depends only on the
        disruption, signal kind and queried entity, never the window."""
        iso2 = cache.network.country.iso2
        key = (iso2, kind, region_name)
        entry = self._share_cache.get(key)
        if entry is None:
            spans = [(d.span.start, d.span.end, share)
                     for d in self._disruptions_by_country.get(iso2, [])
                     if (share := self._affected_share(
                         cache, d, kind, region_name)) > 0.0]
            entry = (
                np.array([s[0] for s in spans], dtype=np.int64),
                np.array([s[1] for s in spans], dtype=np.int64),
                np.array([s[2] for s in spans], dtype=np.float64))
            self._share_cache[key] = entry
        return entry

    def _affected_share(self, cache: _CountryCache,
                        disruption: GroundTruthDisruption, kind: SignalKind,
                        region_name: Optional[str]) -> float:
        """Fraction of the *queried entity's* signal the disruption removes.

        The entity is the country when ``region_name`` is None, else one
        region.  Mobile-only disruptions do not move Active Probing at all
        (probed blocks exclude mobile space).
        """
        if disruption.mobile_only and kind is SignalKind.ACTIVE_PROBING:
            return 0.0
        severity = disruption.severity
        severity *= _SIGNAL_DAMPING.get(disruption.cause, {}).get(kind, 1.0)
        if disruption.mobile_only:
            severity *= cache.mobile_addr_share

        if region_name is not None:
            # Region-level view.
            if disruption.scope is EntityScope.REGION:
                return (severity
                        if disruption.region_name == region_name else 0.0)
            if disruption.scope is EntityScope.COUNTRY:
                return severity
            # AS-scope events spread across regions by address share.
            return severity * cache.as_addr_shares.get(
                disruption.asn or -1, 0.0)

        # Country-level view.
        if disruption.scope is EntityScope.COUNTRY:
            return severity
        if disruption.scope is EntityScope.REGION:
            return severity * cache.region_shares.get(
                disruption.region_name or "", 0.0)
        return severity * cache.as_addr_shares.get(disruption.asn or -1, 0.0)

    def _artifact_multiplier(self, kind: SignalKind, window: TimeRange,
                             bin_width: int) -> Optional[np.ndarray]:
        """Per-bin multiplier of the artifacts of ``kind`` overlapping
        ``window``, or ``None`` when none does."""
        start = bin_floor(window.start, bin_width)
        n_bins = -(-(window.end - start) // bin_width)
        factor = None
        for artifact in self._scenario.artifacts:
            if artifact.signal is not kind:
                continue
            if not artifact.span.overlaps(window):
                continue
            if factor is None:
                factor = np.ones(n_bins, dtype=np.float64)
            first = max(0, (artifact.span.start - start) // bin_width)
            last = min(n_bins, -(-(artifact.span.end - start) // bin_width))
            factor[first:last] *= (1.0 - artifact.depth)
        return factor

    # -- internals: per-signal generation -----------------------------------------

    def _entity_signal(self, cache: _CountryCache, kind: SignalKind,
                       window: TimeRange,
                       region_name: Optional[str]) -> TimeSeries:
        iso2 = cache.network.country.iso2
        bin_width = kind.bin_width
        up = self._up_fraction(cache, kind, window, bin_width, region_name)
        scale = (cache.region_shares.get(region_name, 0.0)
                 if region_name is not None else 1.0)
        rng = substream(self._scenario.seed, "platform", kind.value, iso2,
                        region_name or "", window.start)
        if kind is SignalKind.BGP:
            series = visible_slash24_series(
                window, self._scaled_prefixes(cache, scale), up, rng,
                n_full_feed_peers=N_FULL_FEED_PEERS,
                miss_rate=BGP_PEER_MISS_RATE)
        elif kind is SignalKind.ACTIVE_PROBING:
            run = cache.probing
            if run is None:
                series = TimeSeries.zeros(window, bin_width)
            else:
                # A region probes the first blocks of the sample.
                keep = run.n_blocks
                if region_name is not None:
                    keep = min(keep, max(8, int(keep * scale)))
                series = run.up_count_series(window, up, rng, keep=keep)
        else:
            intensity = cache.network.ibr_intensity * max(scale, 0.02)
            series = unique_source_series(
                window, intensity, up,
                cache.network.country.utc_offset.seconds, rng,
                overdispersion=TELESCOPE_OVERDISPERSION)
        # Substrate counts are integer-valued, so without an artifact the
        # multiply-and-round pass would return them unchanged.
        factor = self._artifact_multiplier(kind, window, bin_width)
        if factor is not None:
            series.values[:] = np.round(series.values * factor)
        return series

    @staticmethod
    def _scaled_prefixes(cache: _CountryCache, scale: float) -> List[int]:
        if scale >= 1.0:
            return list(cache.prefix_sizes)
        keep = max(1, int(len(cache.prefix_sizes) * scale))
        return list(cache.prefix_sizes[:keep])

    def _as_signal(self, entity: Entity, kind: SignalKind,
                   window: TimeRange) -> TimeSeries:
        """AS-level signals: the owning country's series, scaled by the
        AS's address share and rounded."""
        asn = int(entity.identifier)
        network_as = self._scenario.topology.find_as(asn)
        if network_as is None:
            raise SignalError(f"unknown ASN {asn}")
        cache = self._country(network_as.record.country_iso2)
        share = cache.as_addr_shares.get(asn, 0.0)
        country_series = self._country_series(
            cache.network.country.iso2, kind, window, region_name=None)
        scaled = country_series.scale(max(share, 0.01))
        scaled.values[:] = np.round(scaled.values)
        return scaled
