"""The serving layer's hot-artifact cache: a single-flight async LRU.

Two properties carry the load:

- **Single-flight loads.**  Concurrent requests for the same key
  coalesce into one ``factory`` invocation: the first caller becomes
  the *leader* and awaits the load; followers await an
  :class:`asyncio.Event` and re-check the store once it fires.  A
  leader that fails — or is cancelled mid-load — never poisons its
  followers: the pending entry is removed and the event set, so the
  next follower through the loop takes ownership and retries.
  Failures are never cached.
- **Bounded LRU.**  The store is an :class:`~collections.OrderedDict`
  capped at ``maxsize``; inserts past the bound evict the least
  recently used entry.

There is no lock: every mutation happens between awaits on one event
loop, so the dict operations are already atomic.  The await point
*matters*, though — a factory that never yields completes before a
second request can arrive, and nothing coalesces.  The serving routes
therefore load artifacts through :func:`asyncio.to_thread` (a real
await), which is also what keeps a slow disk read from stalling the
accept loop.

Hits, misses, evictions, and coalesced waits are counted both locally
(cheap introspection) and into a :class:`~repro.obs.MetricsRegistry`
as ``serve.cache.*`` — the counters the load harness uses to *prove*
single-flight behaviour and the SLO baseline records as its hit-rate.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Dict, Hashable, Optional

from repro.errors import ConfigurationError
from repro.obs.runtime import current

__all__ = ["DEFAULT_SERVE_CACHE_SIZE", "AsyncLRU"]

#: Default LRU bound.  The canonical store's hot set — the tile pyramid
#: plus per-country event lists for every country with curated records —
#: is a few hundred artifacts; dashboard-mix traffic concentrates on a
#: fraction of that.
DEFAULT_SERVE_CACHE_SIZE = 256


class AsyncLRU:
    """A bounded single-flight LRU for one asyncio event loop."""

    def __init__(self, maxsize: int = DEFAULT_SERVE_CACHE_SIZE, *,
                 metrics: Optional[Any] = None):
        if maxsize < 1:
            raise ConfigurationError(
                f"serve cache size must be >= 1: {maxsize}")
        self._maxsize = maxsize
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._pending: Dict[Hashable, asyncio.Event] = {}
        self._metrics = metrics
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._coalesced = 0

    # -- introspection ----------------------------------------------------------

    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def coalesced(self) -> int:
        """Requests that waited on another request's in-flight load."""
        return self._coalesced

    def __len__(self) -> int:
        return len(self._store)

    def _counter(self, name: str):
        metrics = (self._metrics if self._metrics is not None
                   else current().metrics)
        return metrics.counter(name)

    # -- the one operation ------------------------------------------------------

    async def get_or_create(self, key: Hashable,
                            factory: Callable[[], Awaitable[Any]]) -> Any:
        """The value for ``key``, loading via ``factory`` on a miss.

        Concurrent callers with the same key share one ``factory``
        invocation.  A failed or cancelled leader propagates its
        exception only to itself; waiters retry and one of them takes
        ownership, so an error is never cached and followers are never
        poisoned.
        """
        while True:
            if key in self._store:
                self._store.move_to_end(key)
                self._hits += 1
                self._counter("serve.cache.hits").inc()
                return self._store[key]
            pending = self._pending.get(key)
            if pending is not None:
                # Another task is loading this key; wait for it to
                # settle, then loop: normally a hit, or — if the leader
                # failed — no pending entry, and this task leads.
                self._coalesced += 1
                self._counter("serve.cache.coalesced").inc()
                await pending.wait()
                continue
            pending = self._pending[key] = asyncio.Event()
            try:
                value = await factory()
            except BaseException:
                # Covers cancellation too: unblock the followers so
                # one of them can take over.
                self._pending.pop(key, None)
                pending.set()
                raise
            self._store[key] = value
            self._store.move_to_end(key)
            self._misses += 1
            self._counter("serve.cache.misses").inc()
            while len(self._store) > self._maxsize:
                self._store.popitem(last=False)
                self._evictions += 1
                self._counter("serve.cache.evictions").inc()
            self._pending.pop(key, None)
            pending.set()
            return value
