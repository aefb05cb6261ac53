"""Synthetic per-country AS-level topologies.

For every country in the registry the generator builds a
:class:`CountryNetwork`: a set of autonomous systems with roles (access,
transit, content, ...), IPv4 address allocations expressed as aggregatable
prefixes, eyeball (user) shares, mobile flags, sub-national regions, and
state-ownership.  The distributions are shaped by the country's archetype
hints so that, in aggregate, the synthetic world reproduces the populations
the paper measures: autocracies skew toward state-dominated access markets,
low-income countries have smaller and more centralized address space, and
mobile operators hold many eyeballs behind little address space (the NAT
effect that limits IODA's active probing, §4).

Allocation is deterministic given the seed: countries are processed in
registry order and /24 blocks are handed out from a single global cursor,
with each aggregate aligned to its natural boundary so that every
allocation is a valid CIDR prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.countries.registry import Archetype, Country, CountryRegistry, \
    default_registry
from repro.errors import ConfigurationError
from repro.net.asn import AS, ASN, ASRole
from repro.net.ipv4 import Prefix, SLASH24_COUNT
from repro.rng import substream

__all__ = [
    "Region",
    "NetworkAS",
    "CountryNetwork",
    "WorldTopology",
    "TopologyGenerator",
]

#: First /24 block index handed out (1.0.0.0; keeps 0.0.0.0/8 unused).
_FIRST_SLASH24 = 1 << 8

#: Largest aggregate allocated at once, in /24s (a /14).
_MAX_CHUNK = 1 << 10


@dataclass(frozen=True)
class Region:
    """A sub-national region with its share of the country's network."""

    name: str
    share: float


@dataclass(frozen=True)
class NetworkAS:
    """An AS together with its allocations within its country."""

    record: AS
    prefixes: Tuple[Prefix, ...]
    eyeball_share: float
    mobile: bool = False

    @property
    def num_slash24s(self) -> int:
        """Total /24 blocks originated by this AS."""
        return sum(p.num_slash24s for p in self.prefixes)

    @property
    def asn(self) -> ASN:
        return self.record.asn

    @property
    def state_owned(self) -> bool:
        return self.record.state_owned


@dataclass(frozen=True)
class CountryNetwork:
    """The complete synthetic network of one country."""

    country: Country
    ases: Tuple[NetworkAS, ...]
    regions: Tuple[Region, ...]
    ibr_intensity: float  # mean telescope sources per 5-min bin when fully up

    @property
    def total_slash24s(self) -> int:
        """Total routable /24 blocks in the country."""
        return sum(a.num_slash24s for a in self.ases)

    def state_owned_slash24_fraction(self) -> float:
        """Ground-truth fraction of address space behind state-owned ASes."""
        total = self.total_slash24s
        if total == 0:
            return 0.0
        state = sum(a.num_slash24s for a in self.ases if a.state_owned)
        return state / total


@dataclass
class WorldTopology:
    """All country networks plus global lookup tables."""

    networks: Dict[str, CountryNetwork] = field(default_factory=dict)

    def __iter__(self) -> Iterator[CountryNetwork]:
        return iter(self.networks.values())

    def __len__(self) -> int:
        return len(self.networks)

    def get(self, iso2: str) -> CountryNetwork:
        return self.networks[iso2.upper()]

    def __contains__(self, iso2: str) -> bool:
        return iso2.upper() in self.networks

    def all_ases(self) -> Iterator[NetworkAS]:
        for network in self:
            yield from network.ases

    def find_as(self, asn: int) -> Optional[NetworkAS]:
        """Locate an AS by number anywhere in the world."""
        for network_as in self.all_ases():
            if int(network_as.asn) == asn:
                return network_as
        return None


class TopologyGenerator:
    """Builds a :class:`WorldTopology` deterministically from a seed."""

    def __init__(self, seed: int,
                 registry: CountryRegistry | None = None,
                 address_scale: float = 1.0):
        if address_scale <= 0:
            raise ConfigurationError(
                f"address_scale must be positive: {address_scale}")
        self._seed = seed
        self._registry = registry or default_registry()
        self._address_scale = address_scale

    def generate(self) -> WorldTopology:
        """Generate the full world topology."""
        world = WorldTopology()
        cursor = _FIRST_SLASH24
        next_asn = 10_000
        for country in self._registry:
            network, cursor, next_asn = self._generate_country(
                country, cursor, next_asn)
            world.networks[country.iso2] = network
        return world

    # -- per-country generation ---------------------------------------------

    def _generate_country(self, country: Country, cursor: int,
                          next_asn: int) -> Tuple[CountryNetwork, int, int]:
        rng = substream(self._seed, "topology", country.iso2)
        total24 = self._address_budget(country, rng)
        n_as = self._as_count(total24, rng)
        shares = self._dirichlet(rng, n_as, concentration=0.9)
        roles = self._assign_roles(n_as, rng)
        mobile_flags = self._assign_mobile(roles, rng)
        state_flags = self._assign_state_ownership(
            country, shares, roles, rng)

        ases: List[NetworkAS] = []
        eyeball_shares = self._eyeball_shares(shares, roles, mobile_flags, rng)
        for i in range(n_as):
            blocks = max(1, int(round(shares[i] * total24)))
            if mobile_flags[i]:
                # Mobile operators: few public blocks relative to users.
                blocks = max(1, blocks // 4)
            prefixes, cursor = self._allocate(cursor, blocks)
            record = AS(
                asn=ASN(next_asn),
                name=self._as_name(country, i, roles[i], state_flags[i]),
                country_iso2=country.iso2,
                role=roles[i],
                state_owned=state_flags[i],
            )
            ases.append(NetworkAS(
                record=record,
                prefixes=prefixes,
                eyeball_share=eyeball_shares[i],
                mobile=mobile_flags[i],
            ))
            next_asn += 1

        regions = self._regions(country, rng)
        ibr = self._ibr_intensity(country, sum(a.num_slash24s for a in ases))
        network = CountryNetwork(
            country=country, ases=tuple(ases), regions=regions,
            ibr_intensity=ibr)
        return network, cursor, next_asn

    def _address_budget(self, country: Country,
                        rng: np.random.Generator) -> int:
        """Target /24 count: population times an income-driven penetration."""
        penetration = 0.12 + 0.8 * country.income_hint
        base = country.population_millions * penetration * 30.0
        jitter = float(rng.lognormal(mean=0.0, sigma=0.25))
        budget = int(base * jitter * self._address_scale)
        return int(np.clip(budget, 4, 16_384))

    @staticmethod
    def _as_count(total24: int, rng: np.random.Generator) -> int:
        base = 2 + int(np.sqrt(total24) / 3.0)
        jitter = int(rng.integers(0, 3))
        return int(np.clip(base + jitter, 3, 28))

    @staticmethod
    def _dirichlet(rng: np.random.Generator, n: int,
                   concentration: float) -> np.ndarray:
        shares = rng.dirichlet(np.full(n, concentration))
        order = np.argsort(shares)[::-1]
        return shares[order]

    @staticmethod
    def _assign_roles(n_as: int, rng: np.random.Generator) -> List[ASRole]:
        """Largest ASes are access networks; the tail mixes other roles."""
        roles: List[ASRole] = []
        for i in range(n_as):
            if i < max(2, int(0.55 * n_as)):
                roles.append(ASRole.ACCESS)
            else:
                roles.append(ASRole(rng.choice([
                    ASRole.TRANSIT.value, ASRole.CONTENT.value,
                    ASRole.EDUCATION.value, ASRole.GOVERNMENT.value,
                ], p=[0.45, 0.3, 0.15, 0.1])))
        return roles

    @staticmethod
    def _assign_mobile(roles: List[ASRole],
                       rng: np.random.Generator) -> List[bool]:
        """One or two of the top access ASes are mobile operators."""
        flags = [False] * len(roles)
        access_indices = [i for i, r in enumerate(roles)
                          if r is ASRole.ACCESS]
        n_mobile = int(rng.integers(1, 3))
        for index in access_indices[1:1 + n_mobile]:
            flags[index] = True
        return flags

    def _assign_state_ownership(self, country: Country, shares: np.ndarray,
                                roles: List[ASRole],
                                rng: np.random.Generator) -> List[bool]:
        """Mark ASes state-owned until the country's target share is met.

        High state-ISP-hint countries get their incumbent (largest access
        AS) plus more; low-hint countries usually only government
        enterprise networks, if anything.
        """
        target = float(np.clip(
            rng.normal(country.state_isp_hint, 0.12), 0.0, 0.98))
        flags = [False] * len(shares)
        accumulated = 0.0
        # Government-role ASes are state-owned by definition.
        for i, role in enumerate(roles):
            if role is ASRole.GOVERNMENT:
                flags[i] = True
                accumulated += float(shares[i])
        # Claim access/transit ASes until the target is reached.  In
        # state-dominated markets the incumbent (largest AS) is the
        # state's vehicle, so claim largest-first; where the state is a
        # marginal player it owns niche operators, so claim
        # smallest-first — otherwise even a 10% target would flag the
        # incumbent and overshoot wildly.
        candidates = [i for i in range(len(shares))
                      if not flags[i]
                      and roles[i] in (ASRole.ACCESS, ASRole.TRANSIT)]
        if target < 0.3:
            candidates = candidates[::-1]  # shares are sorted descending
        for i in candidates:
            if accumulated >= target:
                break
            flags[i] = True
            accumulated += float(shares[i])
        return flags

    @staticmethod
    def _eyeball_shares(shares: np.ndarray, roles: List[ASRole],
                        mobile: List[bool],
                        rng: np.random.Generator) -> List[float]:
        """User share per AS: access ASes only, mobile over-weighted."""
        weights = np.zeros(len(shares))
        for i, role in enumerate(roles):
            if role is ASRole.ACCESS:
                weights[i] = shares[i] * (3.0 if mobile[i] else 1.0)
        total = weights.sum()
        if total <= 0:
            # Degenerate topology with no access AS: spread users evenly.
            return [1.0 / len(shares)] * len(shares)
        noise = rng.lognormal(mean=0.0, sigma=0.15, size=len(shares))
        weights = weights * noise
        weights /= weights.sum()
        return [float(w) for w in weights]

    @staticmethod
    def _allocate(cursor: int, blocks: int) -> Tuple[Tuple[Prefix, ...], int]:
        """Allocate ``blocks`` /24s as aligned power-of-two aggregates."""
        prefixes: List[Prefix] = []
        remaining = blocks
        while remaining > 0:
            chunk = min(_MAX_CHUNK, 1 << (remaining.bit_length() - 1))
            # Align the cursor to the chunk size.
            if cursor % chunk:
                cursor += chunk - (cursor % chunk)
            if cursor + chunk > SLASH24_COUNT:
                raise ConfigurationError("IPv4 space exhausted by topology")
            length = 24 - (chunk.bit_length() - 1)
            prefixes.append(Prefix(cursor << 8, length))
            cursor += chunk
            remaining -= chunk
        return tuple(prefixes), cursor

    @staticmethod
    def _as_name(country: Country, index: int, role: ASRole,
                 state: bool) -> str:
        prefix = "National" if state and index == 0 else country.iso2
        return f"{prefix} {_ROLE_SUFFIX[role]} {index + 1}"

    @staticmethod
    def _regions(country: Country,
                 rng: np.random.Generator) -> Tuple[Region, ...]:
        if country.archetype is Archetype.SUBNATIONAL:
            n_regions = 12
        else:
            n_regions = int(np.clip(
                2 + country.population_millions ** 0.3, 3, 9))
        shares = rng.dirichlet(np.full(n_regions, 2.0))
        return tuple(
            Region(name=f"{country.iso2}-REG{i + 1:02d}",
                   share=float(share))
            for i, share in enumerate(shares))

    @staticmethod
    def _ibr_intensity(country: Country, total24: int) -> float:
        """Mean unique telescope sources per 5-minute bin at full
        connectivity.

        Scales with address space; bounded below so even tiny countries
        emit some background radiation (the paper notes the telescope
        signal's high variance, handled by its low 25% alert threshold).
        """
        return max(6.0, total24 * 0.35)


_ROLE_SUFFIX: Mapping[ASRole, str] = {
    ASRole.ACCESS: "Telecom",
    ASRole.TRANSIT: "Networks",
    ASRole.CONTENT: "Hosting",
    ASRole.EDUCATION: "REN",
    ASRole.GOVERNMENT: "GovNet",
}
