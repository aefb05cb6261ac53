"""The serving layer: store build, routes, cursors, transports, loadgen.

The acceptance bar:

- ``build_store`` precomputes event feeds, tile pyramids, and reports
  into a content-addressed store whose addresses double as ETags;
- every 200 carries that ETag and ``If-None-Match`` revalidates to a
  bodyless 304;
- the event routes speak the exact ``IODAClient`` cursor contract —
  pages resume where they ended, cross-filter reuse is a
  ``CursorError`` → 400, and cursors bind to the store's content;
- the load harness's request/response counts are deterministic in
  ``(mix, concurrency, requests, seed)`` — the property that lets the
  SLO baseline exact-match them in CI — and the TCP transport serves
  the same bytes as in-process calls.
"""

import asyncio
import base64
import json

import pytest

import repro.api as api
from repro.errors import ConfigurationError, ServeError
from repro.serve import ArtifactStore, LoadgenConfig, ServeApp, \
    ServeServer, build_store, run_loadgen, tile_count
from repro.timeutils.timestamps import TimeRange, utc
from repro.world.scenario import ScenarioConfig

SMALL_CONFIG = ScenarioConfig(seed=7, years=(2018,))
SMALL_PERIOD = TimeRange(utc(2018, 1, 1), utc(2018, 7, 1))


@pytest.fixture(scope="module")
def small_result():
    return api.run(scenario_config=SMALL_CONFIG,
                   study_period=SMALL_PERIOD)


@pytest.fixture(scope="module")
def store(small_result, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve") / "store"
    return build_store(small_result, root, tile_bins=64, zooms=(0, 1),
                       max_countries=3)


@pytest.fixture()
def app(store):
    return ServeApp(store)


def get(app, target, headers=None):
    return asyncio.run(app.handle("GET", target, headers))


class TestStoreBuild:
    def test_store_has_every_surface(self, store):
        resources = store.resources()
        assert "events/all" in resources
        assert "tiles/index" in resources
        assert "summary" in resources
        assert "health" in resources
        index = store.read_json("tiles/index")
        assert len(index["countries"]) == 3
        for iso2 in index["countries"]:
            for kind in index["kinds"]:
                for zoom in index["zooms"]:
                    for i in range(tile_count(zoom)):
                        assert f"tiles/{iso2}/{kind}/z{zoom}/{i}" \
                            in resources

    def test_addresses_are_content_derived(self, small_result,
                                            tmp_path):
        # Same run, two builds → identical addresses for every
        # resource (the store is a pure function of its inputs).
        again = build_store(small_result, tmp_path / "again",
                            tile_bins=64, zooms=(0, 1), max_countries=3)
        first = build_store(small_result, tmp_path / "first",
                            tile_bins=64, zooms=(0, 1), max_countries=3)
        assert {r: first.etag(r) for r in first.resources()} \
            == {r: again.etag(r) for r in again.resources()}

    def test_events_round_trip_records(self, store, small_result):
        payload = store.read_json("events/all")
        assert payload["total"] == len(small_result.curated_records)
        assert len(payload["records"]) == payload["total"]

    def test_tiles_cover_the_runs_own_period(self, store):
        # The pyramid spans the run's study period, not the default
        # STUDY_PERIOD, without the caller restating it.
        period = store.read_json("tiles/index")["period"]
        assert period == {"start": SMALL_PERIOD.start,
                          "end": SMALL_PERIOD.end}

    def test_tile_values_bounded_by_tile_bins(self, store):
        index = store.read_json("tiles/index")
        iso2 = index["countries"][0]
        tile = store.read_json(f"tiles/{iso2}/bgp/z1/0")
        assert 0 < len(tile["values"]) <= 64
        assert tile["width"] % 300 == 0  # multiple of the native width

    def test_open_missing_store_raises(self, tmp_path):
        with pytest.raises(ServeError):
            ArtifactStore.open(tmp_path / "nowhere")

    def test_unknown_resource_raises(self, store):
        with pytest.raises(ServeError):
            store.read_bytes("no/such/thing")

    def test_bad_build_options_rejected(self, small_result, tmp_path):
        with pytest.raises(ConfigurationError):
            build_store(small_result, tmp_path / "x", tile_bins=0)
        with pytest.raises(ConfigurationError):
            build_store(small_result, tmp_path / "x", zooms=())
        for max_countries in (0, -1):
            with pytest.raises(ConfigurationError, match="max_countries"):
                build_store(small_result, tmp_path / "x",
                            max_countries=max_countries)

    def test_runresult_serve_convenience(self, small_result, tmp_path):
        store = small_result.serve(tmp_path / "via-api",
                                   tile_bins=32, zooms=(0,),
                                   max_countries=1)
        assert "events/all" in store.resources()


class TestRoutesAndETags:
    def test_every_200_carries_a_content_address_etag(self, app, store):
        index = store.read_json("tiles/index")
        iso2 = index["countries"][0]
        targets = ["/healthz", "/v1/summary", "/v1/health",
                   "/v1/manifest", "/v1/tiles",
                   f"/v1/tiles/{iso2}/bgp/0/0",
                   "/v1/events?limit=5", "/metrics"]
        for target in targets:
            response = get(app, target)
            assert response.status == 200, target
            assert response.etag, target

    def test_artifact_etag_is_the_store_address(self, app, store):
        response = get(app, "/v1/summary")
        assert response.etag == store.etag("summary")

    def test_if_none_match_revalidates_to_304(self, app):
        first = get(app, "/v1/summary")
        again = get(app, "/v1/summary",
                    {"If-None-Match": f'"{first.etag}"'})
        assert again.status == 304
        assert again.body == b""
        assert again.etag == first.etag

    def test_if_none_match_weak_and_star_forms(self, app):
        first = get(app, "/v1/tiles")
        weak = get(app, "/v1/tiles",
                   {"If-None-Match": f'W/"{first.etag}"'})
        star = get(app, "/v1/tiles", {"If-None-Match": "*"})
        listed = get(app, "/v1/tiles",
                     {"If-None-Match": f'"zzz", "{first.etag}"'})
        assert (weak.status, star.status, listed.status) \
            == (304, 304, 304)

    def test_stale_etag_gets_fresh_200(self, app):
        response = get(app, "/v1/summary",
                       {"If-None-Match": '"not-the-address"'})
        assert response.status == 200
        assert response.body

    def test_unknown_route_404(self, app):
        assert get(app, "/v1/nope").status == 404
        assert get(app, "/v1/tiles/XX/bgp/0/99").status == 404

    def test_non_get_405(self, app):
        response = asyncio.run(app.handle("POST", "/v1/summary"))
        assert response.status == 405

    def test_head_omits_body(self, app):
        response = asyncio.run(app.handle("HEAD", "/v1/summary"))
        assert response.status == 200
        assert response.body == b""
        assert response.etag

    def test_tile_country_case_insensitive(self, app, store):
        index = store.read_json("tiles/index")
        iso2 = index["countries"][0]
        response = get(app, f"/v1/tiles/{iso2.lower()}/bgp/0/0")
        assert response.status == 200


class TestEventFeedParity:
    """The serve routes speak the IODAClient cursor contract."""

    def test_cursor_resumes_where_the_page_ended(self, app):
        first = get(app, "/v1/events?limit=3").json()
        rest = get(app, f"/v1/events?limit=3&cursor={first['cursor']}"
                   ).json()
        ids = [r["record_id"] for r in first["events"]]
        next_ids = [r["record_id"] for r in rest["events"]]
        assert not set(ids) & set(next_ids)
        everything = get(app, "/v1/events?limit=500").json()
        assert [r["record_id"] for r in everything["events"]][:6] \
            == ids + next_ids

    def test_pagination_walks_everything(self, app, small_result):
        seen, cursor = [], None
        while True:
            target = "/v1/events?limit=7"
            if cursor:
                target += f"&cursor={cursor}"
            page = get(app, target).json()
            seen.extend(page["events"])
            cursor = page["cursor"]
            if cursor is None:
                break
        assert len(seen) == len(small_result.curated_records)

    def test_matches_ioda_client_ordering(self, app, small_result):
        client = api.client(small_result)
        client_page = client.get_events(limit=10)
        serve_page = get(app, "/v1/events?limit=10").json()
        assert [r.record_id for r in client_page.events] \
            == [r["record_id"] for r in serve_page["events"]]
        assert client_page.total == serve_page["total"]

    def test_cross_filter_cursor_is_400(self, app, store):
        countries = sorted(
            {r["country"] for r
             in store.read_json("events/all")["records"]})
        a, b = countries[0], countries[-1]
        page = get(app, f"/v1/events?country={a}&limit=2").json()
        assert page["cursor"]
        crossed = get(app, f"/v1/events?country={b}&limit=2"
                           f"&cursor={page['cursor']}")
        assert crossed.status == 400
        assert "cursor" in crossed.json()["error"]

    def test_tampered_cursor_is_400(self, app):
        page = get(app, "/v1/events?limit=2").json()
        mangled = page["cursor"][:-4] + "AAAA"
        response = get(app, f"/v1/events?limit=2&cursor={mangled}")
        assert response.status == 400

    @pytest.mark.parametrize("position", ["-5", "+2", "02"])
    def test_non_canonical_cursor_position_is_400(self, app, position):
        page = get(app, "/v1/events?limit=2").json()
        key = base64.urlsafe_b64decode(
            page["cursor"].encode("ascii")).decode("ascii").split(":", 2)[2]
        forged = base64.urlsafe_b64encode(
            f"v1:{position}:{key}".encode("ascii")).decode("ascii")
        response = get(app, f"/v1/events?limit=2&cursor={forged}")
        assert response.status == 400
        assert "cursor" in response.json()["error"]

    def test_time_filters_apply(self, app):
        everything = get(app, "/v1/events?limit=500").json()
        midpoint = everything["events"][
            len(everything["events"]) // 2]["start"]
        windowed = get(app, f"/v1/events?from={midpoint}&limit=500"
                       ).json()
        assert 0 < windowed["total"] < everything["total"]
        assert all(r["start"] >= midpoint
                   for r in windowed["events"])

    def test_unknown_country_is_empty_not_404(self, app):
        page = get(app, "/v1/events?country=ZZ&limit=5")
        assert page.status == 200
        assert page.json() == {"events": [], "total": 0,
                               "cursor": None}

    def test_bad_limit_is_400(self, app):
        assert get(app, "/v1/events?limit=0").status == 400
        assert get(app, "/v1/events?limit=banana").status == 400


class TestTCPTransport:
    def test_tcp_serves_the_same_bytes_as_inprocess(self, store):
        async def scenario():
            app = ServeApp(store)
            server = await ServeServer(app).start()
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host,
                                                               port)
                writer.write(b"GET /v1/summary HTTP/1.1\r\n"
                             b"Host: t\r\n\r\n")
                await writer.drain()
                status = await reader.readline()
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = await reader.readexactly(
                    int(headers["content-length"]))
                # Keep-alive: a conditional re-fetch on the same
                # connection revalidates to 304.
                writer.write(
                    b"GET /v1/summary HTTP/1.1\r\nHost: t\r\n"
                    b"If-None-Match: " + headers["etag"].encode()
                    + b"\r\n\r\n")
                await writer.drain()
                second_status = await reader.readline()
                writer.close()
                direct = await app.handle("GET", "/v1/summary")
                return status, headers, body, second_status, direct
            finally:
                await server.stop()

        status, headers, body, second_status, direct = \
            asyncio.run(scenario())
        assert b"200" in status
        assert b"304" in second_status
        assert body == direct.body
        assert headers["etag"].strip('"') == direct.etag


class TestLoadgen:
    CONFIG = dict(concurrency=16, requests_per_client=8, seed=5)

    def test_counts_deterministic_across_runs(self, store):
        reports = [run_loadgen(store, config=LoadgenConfig(
            mix="dashboard", **self.CONFIG)) for _ in range(2)]
        counts = [(r.requests, r.ok, r.not_modified, r.errors)
                  for r in reports]
        assert counts[0] == counts[1]
        assert reports[0].errors == 0
        assert reports[0].requests == 16 * 8

    def test_counts_deterministic_across_transports(self, store):
        inproc = run_loadgen(store, config=LoadgenConfig(
            mix="dashboard", **self.CONFIG))
        tcp = run_loadgen(store, config=LoadgenConfig(
            mix="dashboard", **self.CONFIG), tcp=True)
        assert (inproc.requests, inproc.ok, inproc.not_modified,
                inproc.errors) \
            == (tcp.requests, tcp.ok, tcp.not_modified, tcp.errors)
        assert tcp.transport == "tcp"

    def test_dashboard_mix_exercises_the_304_path(self, store):
        report = run_loadgen(store, config=LoadgenConfig(
            mix="dashboard", concurrency=32, requests_per_client=12,
            seed=3))
        assert report.not_modified > 0
        assert report.errors == 0

    def test_identical_requests_coalesce(self, store):
        report = run_loadgen(store, config=LoadgenConfig(
            mix="zoom", concurrency=64, requests_per_client=4, seed=2))
        assert report.cache.get("coalesced", 0) > 0
        assert report.cache_hit_rate > 0.5

    def test_events_mix_walks_cursors_cleanly(self, store):
        report = run_loadgen(store, config=LoadgenConfig(
            mix="events", **self.CONFIG))
        assert report.errors == 0
        assert report.latency["events"]["count"] > 0

    def test_statistics_shape_for_baselines(self, store):
        from repro.obs import PerfBaseline
        report = run_loadgen(store, config=LoadgenConfig(
            mix="dashboard", **self.CONFIG))
        stats = report.statistics()
        baseline = PerfBaseline.capture(
            name="t", config=report.config, statistics=stats)
        # Deterministic counts land in the exact-matched fidelity
        # half; latencies and cache trends in the perf half.
        assert "serve.requests.total" in baseline.fidelity
        assert "serve.responses.not_modified" in baseline.fidelity
        assert any(k.startswith("perf.serve.latency_p99.")
                   for k in baseline.perf)
        assert "cache.serve.hit_rate" in baseline.perf

    def test_bad_mix_rejected(self):
        with pytest.raises(ConfigurationError):
            LoadgenConfig(mix="stampede")

    def test_report_serializes(self, store, tmp_path):
        report = run_loadgen(store, config=LoadgenConfig(
            mix="dashboard", **self.CONFIG))
        path = report.save(tmp_path / "slo.json")
        payload = json.loads(path.read_text("utf-8"))
        assert payload["requests"] == report.requests
        assert payload["cache_hit_rate"] == round(
            report.cache_hit_rate, 6)
        assert report.rows()
