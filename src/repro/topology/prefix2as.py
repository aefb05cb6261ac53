"""CAIDA-style prefix-to-AS snapshot.

The paper downloads CAIDA's daily RouteViews prefix-to-AS mappings and
combines them with geolocation to estimate per-AS address space per country
(§3.3).  :class:`Prefix2ASSnapshot` plays the role of one daily file: a list
of ``(prefix, origin ASN)`` pairs derived from the topology, with the two
artifacts real snapshots exhibit — occasional multi-origin (MOAS) prefixes
and a small amount of missing coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.net.ipv4 import IPv4Address, Prefix
from repro.net.prefixtree import PrefixTree
from repro.rng import substream
from repro.topology.generator import WorldTopology

__all__ = ["Prefix2ASSnapshot"]


@dataclass(frozen=True)
class _Origin:
    """Origin set for a prefix (usually one ASN; more for MOAS)."""

    asns: Tuple[int, ...]

    @property
    def primary(self) -> int:
        return self.asns[0]


class Prefix2ASSnapshot:
    """One day's prefix-to-AS mapping.

    Build with :meth:`from_topology`; query with :meth:`origin` (exact
    prefix) or :meth:`lookup` (longest-prefix match on an address).
    """

    def __init__(self, entries: List[Tuple[Prefix, Tuple[int, ...]]]):
        self._entries = entries
        self._tree: PrefixTree[_Origin] = PrefixTree()
        for prefix, asns in entries:
            self._tree[prefix] = _Origin(asns)

    @classmethod
    def from_topology(cls, topology: WorldTopology, seed: int,
                      miss_rate: float = 0.01,
                      moas_rate: float = 0.005) -> "Prefix2ASSnapshot":
        """Derive a snapshot from the world topology.

        ``miss_rate`` of prefixes are absent (collector blind spots);
        ``moas_rate`` get a second origin appended (MOAS).
        """
        rng = substream(seed, "prefix2as")
        entries: List[Tuple[Prefix, Tuple[int, ...]]] = []
        all_asns = [int(a.asn) for a in topology.all_ases()]
        for network_as in topology.all_ases():
            for prefix in network_as.prefixes:
                if rng.random() < miss_rate:
                    continue
                origins = [int(network_as.asn)]
                if rng.random() < moas_rate and len(all_asns) > 1:
                    other = int(rng.choice(all_asns))
                    if other != origins[0]:
                        origins.append(other)
                entries.append((prefix, tuple(origins)))
        return cls(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Prefix, Tuple[int, ...]]]:
        return iter(self._entries)

    def origin(self, prefix: Prefix) -> Tuple[int, ...] | None:
        """Origin ASNs recorded for exactly ``prefix``, or None."""
        result = self._tree.exact(prefix)
        return None if result is None else result.asns

    def lookup(self, address: IPv4Address) -> int | None:
        """Primary origin ASN for the longest matching prefix, or None."""
        result = self._tree.lookup(address)
        return None if result is None else result.primary
