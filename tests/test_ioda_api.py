"""Tests for the IODA-style query API and the user-impact analysis."""

import base64
import warnings

import pytest

from repro.analysis.impact import user_impact
from repro.errors import CursorError, PaginationError, TimeRangeError
from repro.ioda.api import IODAClient
from repro.signals.entities import Entity
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import DAY, HOUR
from repro.world.scenario import STUDY_PERIOD


@pytest.fixture(scope="module")
def client(platform, pipeline_result):
    return IODAClient(platform, pipeline_result.curated_records)


class TestSignalQueries:
    def test_payload_shape(self, client):
        payload = client.get_signal(
            Entity.country("SY"), SignalKind.BGP,
            STUDY_PERIOD.start, STUDY_PERIOD.start + 6 * HOUR)
        assert payload.signal == "bgp"
        assert payload.step == 300
        assert len(payload.values) == 6 * 12
        assert payload.until_ts - payload.from_ts == 6 * HOUR

    def test_all_signals(self, client):
        payloads = client.get_all_signals(
            Entity.country("SY"), STUDY_PERIOD.start,
            STUDY_PERIOD.start + HOUR)
        assert set(payloads) == {"bgp", "active-probing", "telescope"}

    def test_invalid_window_rejected(self, client):
        with pytest.raises(TimeRangeError):
            client.get_signal(Entity.country("SY"), SignalKind.BGP,
                              100, 100)


class TestAlertQueries:
    def test_alerts_for_event_window(self, client, scenario):
        event = next(d for d in scenario.shutdowns
                     if d.country_iso2 == "SY"
                     and STUDY_PERIOD.contains(d.span.start))
        entries = client.get_alerts(
            Entity.country("SY"), event.span.start - DAY,
            event.span.end + 6 * HOUR)
        assert entries
        assert any(e.episode.span.overlaps(event.span) for e in entries)


class TestEventFeed:
    def test_cursor_pagination_walks_everything(self, client,
                                                pipeline_result):
        seen = []
        cursor = None
        while True:
            page = client.get_events(limit=100, cursor=cursor)
            seen.extend(page.events)
            if page.cursor is None:
                break
            cursor = page.cursor
        assert len(seen) == len(pipeline_result.curated_records)
        assert page.total == len(pipeline_result.curated_records)
        assert seen == list(pipeline_result.curated_records) \
            or len(seen) == len(pipeline_result.curated_records)

    def test_offset_param_removed(self, client):
        # Cursor paging is the only contract: the deprecated offset=
        # parameter is gone, loudly.
        with pytest.raises(TypeError):
            client.get_events(offset=0, limit=10)

    def test_next_offset_field_removed(self, client):
        page = client.get_events(limit=10)
        assert not hasattr(page, "next_offset")

    def test_cursor_pagination_emits_no_warning(self, client):
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            page = client.get_events(limit=10)
            client.get_events(limit=10, cursor=page.cursor)
        assert captured == []

    def test_cursor_resumes_where_the_page_ended(self, client):
        first = client.get_events(limit=100)
        by_cursor = client.get_events(limit=50, cursor=first.cursor)
        assert by_cursor.events == client.get_events(limit=150).events[100:]

    def test_cursor_bound_to_filters(self, client):
        page = client.get_events(limit=10)
        assert page.cursor is not None
        with pytest.raises(CursorError):
            client.get_events(country_iso2="SY", limit=10,
                              cursor=page.cursor)

    def test_malformed_cursor_rejected(self, client):
        with pytest.raises(CursorError):
            client.get_events(cursor="not-a-cursor")

    def test_tampered_cursor_rejected(self, client):
        # Flip the position inside an otherwise well-formed token: the
        # query-key check must catch edits, not just un-decodable junk.
        page = client.get_events(limit=10)
        token = base64.urlsafe_b64decode(page.cursor.encode("ascii"))
        version, position, key = token.decode("ascii").split(":")
        forged = base64.urlsafe_b64encode(
            f"{version}:{position}:{'0' * len(key)}".encode("ascii")
        ).decode("ascii")
        with pytest.raises(CursorError):
            client.get_events(limit=10, cursor=forged)

    @pytest.mark.parametrize("position", [
        "-5", "+7", " 7", "0_7", "07", "", "7.0", "9" * 5000])
    def test_non_canonical_position_rejected(self, client, position):
        # A position encode_cursor could not have written is rejected
        # even under the right query key: "-5" would otherwise page
        # records[-5:-5 + limit], an empty page with a next cursor.
        page = client.get_events(limit=10)
        key = base64.urlsafe_b64decode(
            page.cursor.encode("ascii")).decode("ascii").split(":", 2)[2]
        forged = base64.urlsafe_b64encode(
            f"v1:{position}:{key}".encode("ascii")).decode("ascii")
        with pytest.raises(CursorError, match="malformed"):
            client.get_events(limit=10, cursor=forged)

    def test_canonical_positions_accepted(self, client):
        page = client.get_events(limit=10)
        key = base64.urlsafe_b64decode(
            page.cursor.encode("ascii")).decode("ascii").split(":", 2)[2]
        for position in ("0", "10"):
            token = base64.urlsafe_b64encode(
                f"v1:{position}:{key}".encode("ascii")).decode("ascii")
            resumed = client.get_events(limit=5, cursor=token)
            assert resumed.events == client.get_events(
                limit=10 + 5).events[int(position):int(position) + 5]

    def test_unsupported_cursor_version_rejected(self, client):
        forged = base64.urlsafe_b64encode(b"v9:0:abc").decode("ascii")
        with pytest.raises(CursorError, match="version"):
            client.get_events(limit=10, cursor=forged)

    def test_cursor_error_is_a_pagination_error(self, client):
        # Typed for new callers, but old `except PaginationError`
        # handlers must keep catching cursor trouble.
        assert issubclass(CursorError, PaginationError)
        with pytest.raises(PaginationError):
            client.get_events(cursor="not-a-cursor")

    def test_cursor_invalid_after_feed_change(self, platform,
                                              pipeline_result):
        records = pipeline_result.curated_records
        before = IODAClient(platform, records)
        page = before.get_events(limit=10)
        after = IODAClient(platform, records[:-1])  # feed revision moved
        with pytest.raises(CursorError):
            after.get_events(limit=10, cursor=page.cursor)

    def test_live_feed_serves_current_records(self, platform,
                                              pipeline_result):
        records = pipeline_result.curated_records
        state = {"records": records[:5], "revision": 1}
        live = IODAClient(platform, feed=lambda: state["records"],
                          revision=lambda: state["revision"])
        assert live.get_events(limit=100).total == 5
        state["records"] = records[:9]
        assert live.get_events(limit=100).total == 9

    def test_live_cursor_stale_after_revision_moves(self, platform,
                                                    pipeline_result):
        # The StreamSession.client() contract: cursors bind to the
        # stream revision (the watermark), so a cursor minted before an
        # advance fails loudly instead of silently paging a shifted
        # feed — even if the record count happens to be unchanged.
        records = pipeline_result.curated_records
        state = {"revision": 100}
        live = IODAClient(platform, feed=lambda: records,
                          revision=lambda: state["revision"])
        page = live.get_events(limit=10)
        assert page.cursor is not None
        state["revision"] = 200
        with pytest.raises(CursorError, match="revision"):
            live.get_events(limit=10, cursor=page.cursor)

    def test_live_feed_rejects_static_records_too(self, platform,
                                                  pipeline_result):
        with pytest.raises(ValueError):
            IODAClient(platform, pipeline_result.curated_records,
                       feed=lambda: [])

    def test_paging_params_are_keyword_only(self, client):
        with pytest.raises(TypeError):
            client.get_events("SY", None, None, 50)  # limit positionally

    def test_country_filter(self, client):
        page = client.get_events(country_iso2="sy", limit=500)
        assert page.events
        assert all(e.country_iso2 == "SY" for e in page.events)

    def test_time_filter(self, client):
        mid = STUDY_PERIOD.start + STUDY_PERIOD.duration // 2
        page = client.get_events(from_ts=mid, limit=500)
        assert all(e.span.start >= mid for e in page.events)

    def test_bad_limit_rejected(self, client):
        with pytest.raises(TimeRangeError):
            client.get_events(limit=0)

    def test_paging_does_not_refingerprint(self, platform,
                                           pipeline_result):
        # A query key is plain string assembly over the filters and the
        # feed revision: no hash of anything enters it.
        records = pipeline_result.curated_records
        client = IODAClient(platform, records)
        page = client.get_events(limit=10)
        assert page.cursor is not None
        token = base64.urlsafe_b64decode(page.cursor).decode("ascii")
        assert token == f"v1:10:-.-.-.r{len(records)}"


class TestUserImpact:
    def test_shutdown_countries_cover_large_population(
            self, pipeline_result):
        impact = user_impact(pipeline_result.merged,
                             pipeline_result.datareportal)
        assert impact.shutdown_users_millions > 100
        assert impact.outage_users_millions > \
            impact.shutdown_users_millions
        assert len(impact.rows()) == 2
