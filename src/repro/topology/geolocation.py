"""MaxMind-style prefix-to-country geolocation database.

The paper combines CAIDA's prefix-to-AS mapping with MaxMind to attribute
address space to countries, and IODA geolocates telescope packet sources the
same way (§3.1.1, §3.3).  The database is derived from topology ground truth
with a small configurable error rate — commercial geolocation is imperfect,
and the error rate lets tests quantify how much mislocation the pipeline
tolerates.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.net.ipv4 import Prefix
from repro.net.prefixtree import PrefixTree
from repro.rng import substream
from repro.topology.generator import WorldTopology

__all__ = ["GeoDatabase"]


class GeoDatabase:
    """Longest-prefix-match prefix-to-country database."""

    def __init__(self, entries: List[Tuple[Prefix, str]]):
        self._entries = entries
        self._tree: PrefixTree[str] = PrefixTree()
        for prefix, iso2 in entries:
            self._tree[prefix] = iso2

    @classmethod
    def from_topology(cls, topology: WorldTopology, seed: int,
                      error_rate: float = 0.01) -> "GeoDatabase":
        """Derive a database from the topology.

        ``error_rate`` of prefixes are attributed to a uniformly random
        other country, modelling stale or wrong commercial geolocation.
        """
        rng = substream(seed, "geolocation")
        codes = [network.country.iso2 for network in topology]
        entries: List[Tuple[Prefix, str]] = []
        for network in topology:
            for network_as in network.ases:
                for prefix in network_as.prefixes:
                    iso2 = network.country.iso2
                    if len(codes) > 1 and rng.random() < error_rate:
                        iso2 = str(rng.choice(
                            [c for c in codes if c != iso2]))
                    entries.append((prefix, iso2))
        return cls(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Prefix, str]]:
        return iter(self._entries)

    def country_of_prefix(self, prefix: Prefix) -> Optional[str]:
        """ISO code recorded for exactly ``prefix``, or None."""
        return self._tree.exact(prefix)
