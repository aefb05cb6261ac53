"""The serving layer's request handling, transport-independent.

:class:`ServeApp` maps GET/HEAD targets onto an
:class:`~repro.serve.artifacts.ArtifactStore`:

- ``/healthz`` — liveness (store root + resource count),
- ``/v1/summary``, ``/v1/health``, ``/v1/manifest`` — run reports,
- ``/v1/tiles`` — the tile pyramid's index,
- ``/v1/tiles/<ISO2>/<kind>/<z>/<i>`` — one signal tile,
- ``/v1/events`` — the cursor-paginated event feed
  (``?country=&from=&until=&limit=&cursor=``), speaking exactly the
  :class:`~repro.ioda.api.IODAClient` cursor contract: pages are cut
  by the *same* pager, :func:`~repro.ioda.api.page_feed`, whose tokens
  are bound to the filters and to the events artifact's content
  address (the feed revision), and any mismatch is a
  :class:`~repro.errors.CursorError` → 400,
- ``/metrics`` — the app's own registry as OpenMetrics text.

Every 200 carries an ``ETag`` that *is* a content address: whole
artifacts reply with the store's blake2b address verbatim, event pages
with a fingerprint over (artifact address, filters, position), so
``If-None-Match`` revalidation (→ 304) is a pure string compare.  Hot
artifacts are read through the single-flight
:class:`~repro.serve.cache.AsyncLRU` — the store read happens in
:func:`asyncio.to_thread`, so concurrent identical requests coalesce
into one disk read and never block the event loop.

Per-request latency lands in ``serve.request.latency.<family>``
histograms and ``serve.requests{route=,status=}`` counters on the
app's :class:`~repro.obs.MetricsRegistry` — the numbers the load
harness turns into the SLO report.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import CursorError, ServeError, TimeRangeError
from repro.exec.cachestore import fingerprint
from repro.ioda.api import page_feed
from repro.obs.metrics import MetricsRegistry
from repro.serve.artifacts import ArtifactStore
from repro.serve.cache import DEFAULT_SERVE_CACHE_SIZE, AsyncLRU

__all__ = ["Response", "ServeApp", "LATENCY_BUCKETS"]

#: Sub-second histogram bounds for request latency (seconds) — the
#: default buckets start at 1ms, far too coarse for warm cache hits.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5)

_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"
_OPENMETRICS = ("application/openmetrics-text; version=1.0.0; "
                "charset=utf-8")


@dataclass(frozen=True)
class Response:
    """One transport-independent response."""

    status: int
    body: bytes = b""
    headers: Mapping[str, str] = field(default_factory=dict)

    @property
    def etag(self) -> Optional[str]:
        """The unquoted ETag, when the response carries one."""
        raw = self.headers.get("ETag")
        return raw.strip('"') if raw else None

    def json(self) -> Any:
        return json.loads(self.body)


def _error(status: int, message: str, family: str) -> Tuple[Response, str]:
    body = json.dumps({"error": message}).encode("utf-8")
    return Response(status, body, {"Content-Type": _JSON}), family


def _if_none_match(headers: Mapping[str, str]) -> Tuple[str, ...]:
    raw = headers.get("if-none-match", "")
    if not raw:
        return ()
    tags = []
    for part in raw.split(","):
        part = part.strip()
        if part.startswith("W/"):
            part = part[2:]
        tags.append(part.strip('"'))
    return tuple(tags)


class ServeApp:
    """GET/HEAD routing over one artifact store (one event loop)."""

    def __init__(self, store: ArtifactStore, *,
                 cache_size: int = DEFAULT_SERVE_CACHE_SIZE,
                 metrics: Optional[MetricsRegistry] = None):
        self._store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = AsyncLRU(cache_size, metrics=self.metrics)
        self._manifest_body = json.dumps(
            store.manifest, sort_keys=True,
            separators=(",", ":")).encode("utf-8")
        self._manifest_etag = fingerprint(
            self._manifest_body.decode("utf-8"))

    @property
    def store(self) -> ArtifactStore:
        return self._store

    # -- entry point ------------------------------------------------------------

    async def handle(self, method: str, target: str,
                     headers: Optional[Mapping[str, str]] = None
                     ) -> Response:
        """Serve one request; never raises for client-side errors."""
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        started = time.perf_counter()
        if method not in ("GET", "HEAD"):
            response, family = _error(405, f"method not allowed: {method}",
                                      "other")
        else:
            try:
                response, family = await self._route(target, headers)
            except CursorError as exc:
                response, family = _error(400, str(exc), "events")
            except (TimeRangeError, ValueError) as exc:
                response, family = _error(400, str(exc), "events")
            except ServeError as exc:
                response, family = _error(404, str(exc), "other")
        if method == "HEAD" and response.body:
            response = Response(response.status, b"", response.headers)
        elapsed = time.perf_counter() - started
        self.metrics.histogram(f"serve.request.latency.{family}",
                               buckets=LATENCY_BUCKETS).observe(elapsed)
        self.metrics.counter("serve.requests", route=family,
                             status=response.status).inc()
        return response

    # -- routing ----------------------------------------------------------------

    async def _route(self, target: str, headers: Mapping[str, str]
                     ) -> Tuple[Response, str]:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/healthz":
            body = json.dumps({
                "status": "ok",
                "resources": len(self._store.resources()),
            }).encode("utf-8")
            return self._reply(body, fingerprint(body.decode("utf-8")),
                               headers, _JSON), "health"
        if path == "/metrics":
            body = self.metrics.to_openmetrics().encode("utf-8")
            return self._reply(body, fingerprint(body.decode("utf-8")),
                               headers, _OPENMETRICS), "metrics"
        if path == "/v1/manifest":
            return self._reply(self._manifest_body, self._manifest_etag,
                               headers, _JSON), "manifest"
        if path == "/v1/summary":
            return await self._artifact("summary", headers), "summary"
        if path == "/v1/health":
            return await self._artifact("health", headers), "health"
        if path == "/v1/tiles":
            return await self._artifact("tiles/index", headers), "tiles"
        if path.startswith("/v1/tiles/"):
            return await self._tile(path, headers), "tiles"
        if path == "/v1/events":
            return await self._events(query, headers), "events"
        raise ServeError(f"no such route: {path}")

    # -- artifact responses ------------------------------------------------------

    async def _cached_bytes(self, resource: str) -> Tuple[bytes, str]:
        if resource not in self._store:
            raise ServeError(f"unknown resource: {resource!r}")

        async def load() -> Tuple[bytes, str]:
            return await asyncio.to_thread(self._store.read_bytes,
                                           resource)

        return await self.cache.get_or_create(("bytes", resource), load)

    async def _artifact(self, resource: str,
                        headers: Mapping[str, str]) -> Response:
        body, etag = await self._cached_bytes(resource)
        return self._reply(body, etag, headers, _JSON)

    async def _tile(self, path: str,
                    headers: Mapping[str, str]) -> Response:
        # /v1/tiles/<ISO2>/<kind>/<z>/<i>
        parts = path.split("/")[3:]
        if len(parts) != 4:
            raise ServeError(f"malformed tile path: {path}")
        iso2, kind, zoom, index = parts
        try:
            zoom_n, index_n = int(zoom), int(index)
        except ValueError:
            raise ServeError(f"malformed tile path: {path}") from None
        resource = f"tiles/{iso2.upper()}/{kind}/z{zoom_n}/{index_n}"
        body, etag = await self._cached_bytes(resource)
        return self._reply(body, etag, headers, _JSON)

    # -- the event feed ----------------------------------------------------------

    async def _cached_events(self, resource: str
                             ) -> Tuple[List[Dict[str, Any]], str]:
        async def load() -> Tuple[List[Dict[str, Any]], str]:
            body, etag = await asyncio.to_thread(
                self._store.read_bytes, resource)
            return json.loads(body)["records"], etag

        if resource not in self._store:
            raise ServeError(f"unknown resource: {resource!r}")
        return await self.cache.get_or_create(("events", resource), load)

    async def _events(self, query: Mapping[str, List[str]],
                      headers: Mapping[str, str]) -> Response:
        country = _single(query, "country")
        from_ts = _int_param(query, "from")
        until_ts = _int_param(query, "until")
        limit = _int_param(query, "limit")
        limit = 50 if limit is None else limit
        cursor = _single(query, "cursor")
        resource = (f"events/country/{country.upper()}" if country
                    else "events/all")
        if resource not in self._store:
            # An unknown country has no per-country artifact: an empty
            # feed, not a 404 — mirroring IODAClient's filter behaviour.
            records: List[Dict[str, Any]] = []
            etag = self._store.etag("events/all")
        else:
            records, etag = await self._cached_events(resource)
        # The cursor binds to the filters and to the artifact's content
        # address — the store's feed revision — and the page is cut by
        # IODAClient's own pager.
        query_key = (f"{etag}.{country.upper() if country else '-'}"
                     f".{'-' if from_ts is None else from_ts}"
                     f".{'-' if until_ts is None else until_ts}")
        start, page, total, next_cursor = page_feed(
            records, itemgetter("start"), from_ts=from_ts,
            until_ts=until_ts, limit=limit, cursor=cursor or None,
            query_key=query_key)
        payload = {"events": page, "total": total, "cursor": next_cursor}
        body = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        page_etag = fingerprint(etag, country, from_ts, until_ts,
                                start, limit)
        return self._reply(body, page_etag, headers, _JSON)

    # -- shared response assembly -------------------------------------------------

    def _reply(self, body: bytes, etag: str,
               headers: Mapping[str, str],
               content_type: str) -> Response:
        base = {"Content-Type": content_type, "ETag": f'"{etag}"'}
        tags = _if_none_match(headers)
        if tags and ("*" in tags or etag in tags):
            return Response(304, b"", base)
        return Response(200, body, base)


def _single(query: Mapping[str, List[str]], name: str) -> Optional[str]:
    values = query.get(name)
    return values[-1] if values else None


def _int_param(query: Mapping[str, List[str]],
               name: str) -> Optional[int]:
    raw = _single(query, name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise TimeRangeError(
            f"query parameter {name!r} must be an integer: {raw!r}"
        ) from None
