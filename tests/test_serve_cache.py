"""The serving layer's single-flight async LRU (`repro.serve.cache`).

The acceptance bar:

- concurrent identical requests coalesce into exactly one factory
  invocation (and the coalesced waiters are counted — the counter the
  load harness uses to *prove* single-flight behaviour);
- the LRU bound evicts least-recently-used entries under pressure;
- a failed or cancelled leader never poisons its followers: one of
  them takes over, the value is computed exactly where it should be,
  and failures are never cached.

No pytest-asyncio dependency: each test drives its own event loop via
``asyncio.run``.
"""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry
from repro.serve.cache import AsyncLRU


class TestSingleFlight:
    def test_concurrent_identical_requests_share_one_load(self):
        async def scenario():
            cache = AsyncLRU(8)
            loads = []

            async def factory():
                loads.append(1)
                await asyncio.sleep(0.01)
                return "value"

            results = await asyncio.gather(*(
                cache.get_or_create("key", factory) for _ in range(50)))
            return cache, loads, results

        cache, loads, results = asyncio.run(scenario())
        assert loads == [1]
        assert results == ["value"] * 50
        assert cache.misses == 1
        assert cache.coalesced == 49
        assert cache.hits == 49  # every waiter re-checks and hits

    def test_different_keys_load_independently(self):
        async def scenario():
            cache = AsyncLRU(8)

            async def factory(key):
                await asyncio.sleep(0)
                return key * 2

            results = await asyncio.gather(*(
                cache.get_or_create(k, lambda k=k: factory(k))
                for k in range(4)))
            return cache, results

        cache, results = asyncio.run(scenario())
        assert results == [0, 2, 4, 6]
        assert cache.misses == 4
        assert cache.coalesced == 0

    def test_sequential_hits_never_reload(self):
        async def scenario():
            cache = AsyncLRU(8)
            loads = []

            async def factory():
                loads.append(1)
                return 42

            first = await cache.get_or_create("k", factory)
            second = await cache.get_or_create("k", factory)
            return cache, loads, (first, second)

        cache, loads, values = asyncio.run(scenario())
        assert values == (42, 42)
        assert loads == [1]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_counters_flow_into_the_registry(self):
        async def scenario():
            metrics = MetricsRegistry()
            cache = AsyncLRU(8, metrics=metrics)

            async def factory():
                await asyncio.sleep(0.005)
                return "v"

            await asyncio.gather(*(
                cache.get_or_create("k", factory) for _ in range(5)))
            return metrics.snapshot()["counters"]

        counters = asyncio.run(scenario())
        assert counters["serve.cache.misses"] == 1
        assert counters["serve.cache.coalesced"] == 4
        assert counters["serve.cache.hits"] == 4


class TestEviction:
    def test_lru_evicts_under_pressure(self):
        async def scenario():
            cache = AsyncLRU(2)

            async def factory(key):
                await asyncio.sleep(0)
                return key

            await cache.get_or_create("a", lambda: factory("a"))
            await cache.get_or_create("b", lambda: factory("b"))
            await cache.get_or_create("a", lambda: factory("a"))  # a hot
            await cache.get_or_create("c", lambda: factory("c"))  # b out
            await cache.get_or_create("b", lambda: factory("b"))  # reload
            return cache

        cache = asyncio.run(scenario())
        assert cache.evictions == 2  # b evicted, then a evicted
        assert cache.misses == 4  # a, b, c, then b again
        assert cache.hits == 1
        assert len(cache) == 2

    def test_bound_is_respected(self):
        async def scenario():
            cache = AsyncLRU(3)

            async def factory(key):
                await asyncio.sleep(0)
                return key

            for k in range(10):
                await cache.get_or_create(k, lambda k=k: factory(k))
            return cache

        cache = asyncio.run(scenario())
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_zero_size_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncLRU(0)


class TestLeaderFailure:
    def test_failed_leader_does_not_poison_followers(self):
        async def scenario():
            cache = AsyncLRU(8)
            attempts = []

            async def factory():
                attempts.append(1)
                await asyncio.sleep(0.005)
                if len(attempts) == 1:
                    raise OSError("disk hiccup")
                return "recovered"

            results = await asyncio.gather(
                *(cache.get_or_create("k", factory) for _ in range(5)),
                return_exceptions=True)
            return cache, attempts, results

        cache, attempts, results = asyncio.run(scenario())
        failures = [r for r in results if isinstance(r, OSError)]
        values = [r for r in results if r == "recovered"]
        assert len(failures) == 1  # only the leader sees the error
        assert len(values) == 4  # every follower recovers
        assert attempts == [1, 1]  # one retry, not one per follower
        assert cache.misses == 1  # the failure was never cached

    def test_cancelled_leader_does_not_poison_followers(self):
        async def scenario():
            cache = AsyncLRU(8)
            started = asyncio.Event()
            loads = []

            async def factory():
                loads.append(1)
                started.set()
                await asyncio.sleep(0.01)
                return "value"

            leader = asyncio.create_task(
                cache.get_or_create("k", factory))
            await started.wait()
            followers = [asyncio.create_task(
                cache.get_or_create("k", factory)) for _ in range(4)]
            await asyncio.sleep(0)  # let the followers enqueue
            leader.cancel()
            results = await asyncio.gather(*followers)
            with pytest.raises(asyncio.CancelledError):
                await leader
            return cache, loads, results

        cache, loads, results = asyncio.run(scenario())
        assert results == ["value"] * 4
        # The cancelled leader's load plus exactly one successor's.
        assert loads == [1, 1]
        assert cache.misses == 1

    def test_failure_then_fresh_request_reloads(self):
        async def scenario():
            cache = AsyncLRU(8)
            calls = []

            async def failing():
                calls.append("fail")
                await asyncio.sleep(0)
                raise ValueError("nope")

            async def working():
                calls.append("ok")
                await asyncio.sleep(0)
                return "fine"

            try:
                await cache.get_or_create("k", failing)
            except ValueError:
                pass
            value = await cache.get_or_create("k", working)
            return cache, calls, value

        cache, calls, value = asyncio.run(scenario())
        assert value == "fine"
        assert calls == ["fail", "ok"]
        assert cache.misses == 1
        assert len(cache) == 1
