"""Deterministic sharding of the curation workload.

The paper's pipeline is embarrassingly parallel by country: each of the
155 countries is observed and curated independently (§3–4), so the
natural shard is a set of countries.  :class:`ShardPlan` splits the
triggered-country list into a fixed number of shards *independently of
the worker count* — the shard is also the cache granule, and tying it to
``workers`` would invalidate a warm cache whenever the pool size changed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["DEFAULT_N_SHARDS", "Shard", "ShardPlan"]

#: Default shard count: enough granularity to keep a small pool busy and
#: to localize cache invalidation, few enough that per-shard overhead
#: (scenario regeneration in process workers) stays negligible.
DEFAULT_N_SHARDS = 8


@dataclass(frozen=True)
class Shard:
    """One unit of schedulable, cacheable work."""

    index: int
    countries: Tuple[str, ...]


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of countries to shards."""

    shards: Tuple[Shard, ...]

    @classmethod
    def split(cls, countries: Sequence[str],
              n_shards: int = DEFAULT_N_SHARDS,
              weights: Optional[Mapping[str, float]] = None) -> "ShardPlan":
        """Partition countries into ``n_shards`` balanced shards.

        With ``weights`` (e.g. total investigation-window seconds per
        country), a longest-processing-time greedy assignment keeps the
        heavy hitters from piling into one shard; without, countries are
        round-robined alphabetically.  Both assignments depend only on
        the inputs — never on worker count or timing — so the plan, and
        with it every shard cache key, is reproducible.  Empty shards
        are dropped.
        """
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1: {n_shards}")
        ordered = sorted(set(countries))
        buckets: List[List[str]] = [[] for _ in range(n_shards)]
        if weights is None:
            for position, iso2 in enumerate(ordered):
                buckets[position % n_shards].append(iso2)
        else:
            heaviest_first = sorted(
                ordered, key=lambda c: (-float(weights.get(c, 0.0)), c))
            heap = [(0.0, index) for index in range(n_shards)]
            for iso2 in heaviest_first:
                load, index = heapq.heappop(heap)
                buckets[index].append(iso2)
                heapq.heappush(
                    heap, (load + float(weights.get(iso2, 0.0)), index))
        shards = tuple(
            Shard(index=index, countries=tuple(sorted(bucket)))
            for index, bucket in enumerate(buckets) if bucket)
        return cls(shards=shards)

    def __iter__(self):
        return iter(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def countries(self) -> Tuple[str, ...]:
        """All countries in the plan, in global (sorted) merge order."""
        return tuple(sorted(
            iso2 for shard in self.shards for iso2 in shard.countries))
