"""Engineering bench: the serving layer's artifact paths.

Not a paper table — this bench tracks the three response paths the
:mod:`repro.serve` stack distinguishes, on the same route:

- **Cold store read.**  A request whose artifact is not resident: the
  app thread-pools a disk read of the content-addressed object and
  caches the bytes.
- **Warm cache hit.**  The same request again: served straight from
  the single-flight LRU (the path the SLO baseline's p99 rides on).
- **Conditional revalidation.**  The same request with
  ``If-None-Match``: the ETag comparison short-circuits to a bodyless
  304 — never slower than shipping the full body.
"""

import asyncio

from benchmarks.conftest import print_banner
from repro.serve import ServeApp, build_store
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

import repro.api as api

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))
ROUNDS = 200


def _store(tmp_path):
    result = api.run(scenario_config=SMALL_CONFIG,
                     study_period=SMALL_PERIOD)
    return build_store(result, tmp_path / "store", tile_bins=64,
                       zooms=(0, 1), max_countries=3)


def _drive(app, target, headers=None, rounds=ROUNDS):
    """Mean seconds per request, measured inside one event loop."""

    async def scenario():
        import time
        await app.handle("GET", "/healthz")  # loop + executor warmup
        start = time.perf_counter()
        for _ in range(rounds):
            response = await app.handle("GET", target, headers)
        return (time.perf_counter() - start) / rounds, response

    return asyncio.run(scenario())


def test_bench_serve_cold_vs_warm_vs_304(benchmark, tmp_path):
    store = _store(tmp_path)
    iso2 = store.read_json("tiles/index")["countries"][0]
    target = f"/v1/tiles/{iso2}/bgp/1/0"

    # Cold: a one-entry cache and two alternating tiles means every
    # request evicts the other and re-reads the store.
    cold_app = ServeApp(store, cache_size=1)
    other = f"/v1/tiles/{iso2}/bgp/1/1"

    async def cold_pair():
        await cold_app.handle("GET", target)
        await cold_app.handle("GET", other)

    async def cold_scenario():
        import time
        await cold_app.handle("GET", "/healthz")
        start = time.perf_counter()
        for _ in range(ROUNDS // 2):
            await cold_pair()
        return (time.perf_counter() - start) / (ROUNDS // 2 * 2)

    cold_mean = asyncio.run(cold_scenario())
    assert cold_app.cache.evictions > 0

    # Warm: the same tile over and over, one resident entry.
    warm_app = ServeApp(store)
    warm_mean, warm_response = _drive(warm_app, target)
    assert warm_response.status == 200
    assert warm_app.cache.hits >= ROUNDS - 1

    # 304: same tile, conditional on its content address.
    etag = warm_response.etag
    cond_app = ServeApp(store)
    cond_app_headers = {"if-none-match": f'"{etag}"'}
    _drive(cond_app, target, rounds=1)  # make the entry resident
    cond_mean, cond_response = _drive(cond_app, target,
                                      cond_app_headers)
    assert cond_response.status == 304
    assert cond_response.body == b""

    benchmark.pedantic(
        lambda: asyncio.run(_bench_round(warm_app, target)),
        rounds=5, iterations=1)

    # The acceptance bar: a warm hit must beat a cold store read, and
    # revalidation must never cost more than shipping the body.
    assert warm_mean < cold_mean, (warm_mean, cold_mean)
    assert cond_mean <= warm_mean * 1.5, (cond_mean, warm_mean)
    print_banner(
        "Serving layer — cold read vs warm hit vs 304",
        "engineering bench (no paper analogue)",
        [f"cold store read   {cold_mean * 1e6:8.1f} us",
         f"warm cache hit    {warm_mean * 1e6:8.1f} us",
         f"304 revalidation  {cond_mean * 1e6:8.1f} us",
         f"warm speedup      {cold_mean / warm_mean:8.1f}x"])


async def _bench_round(app, target):
    for _ in range(50):
        await app.handle("GET", target)


def test_bench_serve_coalescing_burst(benchmark, tmp_path):
    """A synchronized burst of identical requests costs one store read."""
    store = _store(tmp_path)
    iso2 = store.read_json("tiles/index")["countries"][0]
    target = f"/v1/tiles/{iso2}/bgp/0/0"
    clients = 128

    async def burst():
        app = ServeApp(store)
        responses = await asyncio.gather(*(
            app.handle("GET", target) for _ in range(clients)))
        return app, responses

    app, responses = benchmark.pedantic(
        lambda: asyncio.run(burst()), rounds=5, iterations=1)
    assert all(r.status == 200 for r in responses)
    assert len({r.etag for r in responses}) == 1
    assert app.cache.misses == 1
    assert app.cache.coalesced == clients - 1
    print_banner(
        "Serving layer — single-flight burst",
        "engineering bench (no paper analogue)",
        [f"clients           {clients:8d}",
         f"store reads       {app.cache.misses:8d}",
         f"coalesced waiters {app.cache.coalesced:8d}"])
