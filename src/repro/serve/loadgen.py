"""The load-generation harness: seeded client mixes → an SLO report.

Replays realistic dashboard traffic against a :class:`ServeApp` —
in-process, or over real TCP sockets — at configurable concurrency,
and distils the result into an :class:`SLOReport` whose statistics
feed the perf baseline machinery (:mod:`repro.obs.baseline`).

**Determinism contract.**  Every client ``i`` draws its behaviour from
a private ``random.Random(seed * 7919 + i)`` and never from wall time
or response timing, so the *request plan* — which targets are fetched,
which are conditional re-fetches — is a pure function of
``(mix, concurrency, requests_per_client, seed)`` plus the store's
content.  The request and response **counts** (total, 200s, 304s,
errors) are therefore exactly reproducible across machines, transports
and interleavings, which is what lets the SLO baseline pin them as
*fidelity* values (exact-matched in CI) while latencies and cache
hit-rates ride in the trend-only perf half.

Three mixes model the paper-era dashboard traffic shapes:

- ``dashboard`` — a bootstrap index fetch, then tile pans, country
  event pages, and conditional re-fetches of already-seen URLs with
  ``If-None-Match`` (the 304 revalidation path),
- ``events`` — cursor walks of the event feed (the paper's curators
  paging through candidates), restarting on exhaustion,
- ``zoom`` — coarse-to-fine tile chains (z0 → z1 → z2), the
  drill-into-an-outage gesture.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError, ServeError
from repro.obs.metrics import Histogram
from repro.serve.artifacts import ArtifactStore
from repro.serve.http import ServeServer
from repro.serve.routes import LATENCY_BUCKETS, ServeApp

__all__ = ["LoadgenConfig", "SLOReport", "run_loadgen", "MIXES"]

MIXES = ("dashboard", "events", "zoom")

_EVENT_LIMIT = 25


@dataclass(frozen=True)
class LoadgenConfig:
    """One load burst's shape (all of it baseline config)."""

    mix: str = "dashboard"
    concurrency: int = 256
    requests_per_client: int = 40
    seed: int = 1

    def __post_init__(self) -> None:
        if self.mix not in MIXES:
            raise ConfigurationError(
                f"unknown mix {self.mix!r}; pick one of {MIXES}")
        if self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1: {self.concurrency}")
        if self.requests_per_client < 2:
            raise ConfigurationError(
                "requests_per_client must be >= 2 (the first request "
                f"is the index bootstrap): {self.requests_per_client}")

    def as_dict(self) -> Dict[str, Any]:
        return {"mix": self.mix, "concurrency": self.concurrency,
                "requests_per_client": self.requests_per_client,
                "seed": self.seed}


# -- transports ----------------------------------------------------------------


class _InProcessTransport:
    """Calls :meth:`ServeApp.handle` directly (no sockets)."""

    def __init__(self, app: ServeApp):
        self._app = app

    async def open(self) -> None:
        return None

    async def close(self) -> None:
        return None

    async def request(self, target: str,
                      headers: Optional[Mapping[str, str]] = None
                      ) -> Tuple[int, Mapping[str, str], bytes]:
        response = await self._app.handle("GET", target, headers)
        return response.status, dict(response.headers), response.body


class _TCPTransport:
    """One keep-alive HTTP/1.1 connection per client."""

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def request(self, target: str,
                      headers: Optional[Mapping[str, str]] = None
                      ) -> Tuple[int, Mapping[str, str], bytes]:
        assert self._reader is not None and self._writer is not None
        lines = [f"GET {target} HTTP/1.1", f"Host: {self._host}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self._writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split(b" ", 2)[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        body = (await self._reader.readexactly(length) if length
                else b"")
        return status, response_headers, body


# -- client behaviours ---------------------------------------------------------


def _family(target: str) -> str:
    path = target.split("?", 1)[0]
    if path.startswith("/v1/events"):
        return "events"
    if path.startswith("/v1/tiles"):
        return "tiles"
    if path.startswith("/v1/summary"):
        return "summary"
    if path.startswith("/v1/health") or path.startswith("/healthz"):
        return "health"
    if path.startswith("/v1/manifest"):
        return "manifest"
    if path.startswith("/metrics"):
        return "metrics"
    return "other"


class _Client:
    """One simulated browser session."""

    def __init__(self, index: int, config: LoadgenConfig,
                 transport: Any, tally: "_Tally"):
        self._rng = random.Random(config.seed * 7919 + index)
        self._config = config
        self._transport = transport
        self._tally = tally
        # URL → unquoted ETag, for conditional re-fetches.
        self._seen: Dict[str, str] = {}
        self._index: Optional[Mapping[str, Any]] = None

    async def run(self) -> None:
        await self._transport.open()
        try:
            body = await self._fetch("/v1/tiles")
            self._index = json.loads(body) if body else None
            steps = {
                "dashboard": self._dashboard_step,
                "events": self._events_step,
                "zoom": self._zoom_step,
            }[self._config.mix]
            budget = self._config.requests_per_client - 1
            while budget > 0:
                budget -= await steps(budget)
        finally:
            await self._transport.close()

    async def _fetch(self, target: str,
                     conditional: bool = False) -> bytes:
        headers: Dict[str, str] = {}
        if conditional:
            headers["If-None-Match"] = f'"{self._seen[target]}"'
        started = time.perf_counter()
        status, response_headers, body = \
            await self._transport.request(target, headers or None)
        elapsed = time.perf_counter() - started
        etag = response_headers.get(
            "etag", response_headers.get("ETag", "")).strip('"')
        if status == 200 and etag:
            self._seen[target] = etag
        self._tally.record(_family(target), status, elapsed)
        return body

    # -- per-mix steps (each returns the number of requests spent) -----------

    def _tile_target(self) -> str:
        index = self._index or {}
        countries = index.get("countries") or ["-"]
        kinds = index.get("kinds") or ["bgp"]
        zooms = index.get("zooms") or [0]
        base = index.get("zoom_base", 4)
        country = self._rng.choice(countries)
        kind = self._rng.choice(kinds)
        zoom = self._rng.choice(zooms)
        tile = self._rng.randrange(base ** zoom)
        return f"/v1/tiles/{country}/{kind}/{zoom}/{tile}"

    def _events_target(self, country: Optional[str],
                       cursor: Optional[str] = None) -> str:
        target = f"/v1/events?limit={_EVENT_LIMIT}"
        if country:
            target += f"&country={country}"
        if cursor:
            target += f"&cursor={cursor}"
        return target

    def _pick_country(self) -> Optional[str]:
        countries = (self._index or {}).get("countries") or []
        if not countries or self._rng.random() < 0.2:
            return None
        return self._rng.choice(countries)

    async def _dashboard_step(self, budget: int) -> int:
        roll = self._rng.random()
        if roll < 0.50:
            await self._fetch(self._tile_target())
        elif roll < 0.75:
            await self._fetch(self._events_target(self._pick_country()))
        elif self._seen:
            # Revalidate something already on screen: the 304 path.
            target = self._rng.choice(sorted(self._seen))
            await self._fetch(target, conditional=True)
        else:
            await self._fetch("/v1/summary")
        return 1

    async def _events_step(self, budget: int) -> int:
        country = self._pick_country()
        cursor: Optional[str] = None
        spent = 0
        while spent < budget:
            body = await self._fetch(self._events_target(country,
                                                         cursor))
            spent += 1
            cursor = json.loads(body).get("cursor") if body else None
            if cursor is None:
                break
        return spent

    async def _zoom_step(self, budget: int) -> int:
        index = self._index or {}
        countries = index.get("countries") or ["-"]
        kinds = index.get("kinds") or ["bgp"]
        zooms = sorted(index.get("zooms") or [0])
        base = index.get("zoom_base", 4)
        country = self._rng.choice(countries)
        kind = self._rng.choice(kinds)
        tile = 0
        spent = 0
        for zoom in zooms:
            if spent >= budget:
                break
            await self._fetch(f"/v1/tiles/{country}/{kind}"
                              f"/{zoom}/{tile}")
            spent += 1
            tile = tile * base + self._rng.randrange(base)
        return max(spent, 1)


# -- tallying and the report ---------------------------------------------------


class _Tally:
    """Client-side latency histograms and response counts."""

    def __init__(self) -> None:
        self.histograms: Dict[str, Histogram] = {}
        self.statuses: Dict[int, int] = {}

    def record(self, family: str, status: int, elapsed: float) -> None:
        histogram = self.histograms.get(family)
        if histogram is None:
            histogram = self.histograms[family] = \
                Histogram(LATENCY_BUCKETS)
        histogram.observe(elapsed)
        self.statuses[status] = self.statuses.get(status, 0) + 1


@dataclass(frozen=True)
class SLOReport:
    """One load burst's outcome, ready for baseline gating."""

    config: Dict[str, Any]
    elapsed_seconds: float
    requests: int
    ok: int
    not_modified: int
    errors: int
    latency: Dict[str, Dict[str, Optional[float]]]  # family → p50/p99
    cache: Dict[str, float] = field(default_factory=dict)
    transport: str = "inprocess"

    @property
    def throughput_rps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.requests / self.elapsed_seconds

    @property
    def cache_hit_rate(self) -> float:
        looked = self.cache.get("hits", 0) + self.cache.get("misses", 0)
        return self.cache.get("hits", 0) / looked if looked else 0.0

    def statistics(self) -> Dict[str, float]:
        """The flat mapping :meth:`PerfBaseline.capture` splits.

        Deterministic request/response counts go in as fidelity values
        (exact-matched); latencies as trend-only ``perf.*``; hit-rate
        and throughput as trend-only ``cache.*``.
        """
        stats: Dict[str, float] = {
            "serve.requests.total": float(self.requests),
            "serve.responses.ok": float(self.ok),
            "serve.responses.not_modified": float(self.not_modified),
            "serve.responses.errors": float(self.errors),
            "perf.serve.total_seconds": self.elapsed_seconds,
        }
        for family in sorted(self.latency):
            quantiles = self.latency[family]
            for q in ("p50", "p99"):
                value = quantiles.get(q)
                if value is not None:
                    stats[f"perf.serve.latency_{q}.{family}"] = value
        stats["cache.serve.hit_rate"] = self.cache_hit_rate
        stats["cache.serve.throughput_rps"] = self.throughput_rps
        for key in ("hits", "misses", "coalesced", "evictions"):
            stats[f"cache.serve.{key}"] = float(
                self.cache.get(key, 0))
        return stats

    def as_dict(self) -> Dict[str, Any]:
        return {
            "config": dict(self.config),
            "transport": self.transport,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "requests": self.requests,
            "ok": self.ok,
            "not_modified": self.not_modified,
            "errors": self.errors,
            "throughput_rps": round(self.throughput_rps, 3),
            "latency": self.latency,
            "cache": dict(self.cache),
            "cache_hit_rate": round(self.cache_hit_rate, 6),
        }

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n",
                        encoding="utf-8")
        return path

    def rows(self) -> List[str]:
        lines = [
            f"loadgen         mix={self.config.get('mix')} "
            f"clients={self.config.get('concurrency')} "
            f"requests={self.requests} "
            f"({self.ok} ok, {self.not_modified} not-modified, "
            f"{self.errors} errors) in {self.elapsed_seconds:.2f}s "
            f"[{self.transport}]",
            f"  throughput    {self.throughput_rps:,.0f} req/s",
            f"  cache         hit-rate {self.cache_hit_rate:.1%} "
            f"({self.cache.get('hits', 0):.0f} hits, "
            f"{self.cache.get('misses', 0):.0f} misses, "
            f"{self.cache.get('coalesced', 0):.0f} coalesced, "
            f"{self.cache.get('evictions', 0):.0f} evictions)",
        ]
        for family in sorted(self.latency):
            quantiles = self.latency[family]
            p50, p99 = quantiles.get("p50"), quantiles.get("p99")
            count = quantiles.get("count", 0)
            lines.append(
                f"  {family:<13} p50 {_ms(p50)}  p99 {_ms(p99)}  "
                f"({count:.0f} requests)")
        return lines


def _ms(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value * 1e3:.2f}ms"


# -- the harness entry point ---------------------------------------------------


def run_loadgen(store: Optional[ArtifactStore] = None, *,
                app: Optional[ServeApp] = None,
                url: Optional[str] = None,
                config: LoadgenConfig = LoadgenConfig(),
                tcp: bool = False) -> SLOReport:
    """Run one load burst and return its :class:`SLOReport`.

    Pass a ``store`` (an app is built over it) or a ready ``app``;
    ``tcp=True`` spawns a private :class:`ServeServer` on an ephemeral
    port and drives it over real sockets.  ``url`` instead targets an
    already-running external server (cache counters are then absent
    from the report — the server's registry is not reachable).
    """
    if url is None and app is None and store is None:
        raise ServeError("pass a store, an app, or a server url")
    if url is not None:
        # External server: its app (and cache counters) are out of
        # reach; any store/app passed alongside would sit idle.
        app = None
    elif app is None:
        app = ServeApp(store)
    return asyncio.run(_run_async(app, url, config, tcp))


async def _run_async(app: Optional[ServeApp], url: Optional[str],
                     config: LoadgenConfig, tcp: bool) -> SLOReport:
    server: Optional[ServeServer] = None
    if url is not None:
        split = url.split("://", 1)[-1]
        host, _, port = split.partition(":")
        transports = [_TCPTransport(host, int(port or "80"))
                      for _ in range(config.concurrency)]
        transport_name = "tcp"
    elif tcp:
        assert app is not None
        server = await ServeServer(app).start()
        host, port_n = server.address
        transports = [_TCPTransport(host, port_n)
                      for _ in range(config.concurrency)]
        transport_name = "tcp"
    else:
        assert app is not None
        transports = [_InProcessTransport(app)
                      for _ in range(config.concurrency)]
        transport_name = "inprocess"

    tally = _Tally()
    clients = [_Client(i, config, transports[i], tally)
               for i in range(config.concurrency)]
    started = time.perf_counter()
    try:
        await asyncio.gather(*(c.run() for c in clients))
    finally:
        if server is not None:
            await server.stop()
    elapsed = time.perf_counter() - started

    latency: Dict[str, Dict[str, Optional[float]]] = {}
    for family, histogram in sorted(tally.histograms.items()):
        quantiles = histogram.percentiles((50, 99))
        latency[family] = {
            "count": float(histogram.count),
            "p50": quantiles[50],
            "p99": quantiles[99],
        }
    cache: Dict[str, float] = {}
    if app is not None:
        cache = {"hits": float(app.cache.hits),
                 "misses": float(app.cache.misses),
                 "coalesced": float(app.cache.coalesced),
                 "evictions": float(app.cache.evictions)}
    requests = sum(tally.statuses.values())
    return SLOReport(
        config=config.as_dict(),
        elapsed_seconds=elapsed,
        requests=requests,
        ok=tally.statuses.get(200, 0),
        not_modified=tally.statuses.get(304, 0),
        errors=sum(n for status, n in tally.statuses.items()
                   if status >= 400),
        latency=latency,
        cache=cache,
        transport=transport_name,
    )
