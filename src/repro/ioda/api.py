"""IODA-style public query API.

The real IODA exposes signals, alerts and events through a public REST
API that the paper's authors queried alongside the dashboard (§3.1.2).
:class:`IODAClient` is the equivalent programmatic facade over the
simulated platform: time-windowed signal queries, alert listings, and a
cursor-paginated event feed over a curated record list — the interface
a downstream tool (like the paper's proposed rapid-response triage)
would build against.

The feed can be **live**: built over a streaming session
(:meth:`repro.stream.session.StreamSession.client`), the client reads
its records through a ``feed`` callable and binds every cursor to the
session's ``revision`` (the watermark), so a cursor minted before the
stream advanced fails loudly with :class:`~repro.errors.CursorError`
instead of silently paging a shifted feed.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, \
    TypeVar, Union

from repro.errors import CursorError, TimeRangeError
from repro.resilience.faults import maybe_fault
from repro.ioda.dashboard import Dashboard, DashboardEntry
from repro.ioda.platform import IODAPlatform
from repro.ioda.records import OutageRecord
from repro.signals.entities import Entity
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import TimeRange

__all__ = ["SignalPayload", "EventPage", "IODAClient", "encode_cursor",
           "decode_cursor", "page_feed"]

#: A feed item: an :class:`OutageRecord`, or its stored dict.
_Item = TypeVar("_Item")


def encode_cursor(position: int, query_key: str) -> str:
    """Mint an opaque cursor token for ``position`` within a query.

    ``query_key`` identifies the exact query (filters + feed revision)
    the cursor binds to; :func:`decode_cursor` refuses the token under
    any other key.  Shared by :class:`IODAClient` and the serving
    layer's event routes (:mod:`repro.serve.routes`) so their cursor
    contracts are literally the same code.
    """
    token = f"v1:{position}:{query_key}".encode("ascii")
    return base64.urlsafe_b64encode(token).decode("ascii")


def decode_cursor(cursor: str, query_key: str) -> int:
    """Recover the page position from a cursor minted under ``query_key``.

    Raises :class:`~repro.errors.CursorError` on tampered, truncated,
    or unsupported-version tokens, on a position that is not the
    canonical non-negative decimal :func:`encode_cursor` writes, and on
    any key mismatch (different filters or a different feed revision).
    """
    try:
        token = base64.urlsafe_b64decode(cursor.encode("ascii"))
        version, position, key = token.decode("ascii").split(":", 2)
    except (binascii.Error, UnicodeDecodeError, ValueError) as exc:
        raise CursorError(f"malformed cursor: {cursor!r}") from exc
    if version != "v1":
        raise CursorError(f"unsupported cursor version: {version!r}")
    if key != query_key:
        raise CursorError(
            "cursor was issued for a different query or feed "
            "revision; restart pagination without a cursor")
    # int() would also take "-5", "+7", " 7" and "0_7"; a negative
    # position silently serves an empty page from the feed's tail.
    if not position.isdigit() or (position != "0"
                                  and position.startswith("0")):
        raise CursorError(f"malformed cursor: {cursor!r}")
    try:
        return int(position)
    except ValueError as exc:  # beyond int()'s digit limit
        raise CursorError(f"malformed cursor: {cursor!r}") from exc


def page_feed(records: Sequence[_Item], start_of: Callable[[_Item], int],
              *, from_ts: Optional[int], until_ts: Optional[int],
              limit: int, cursor: Optional[str], query_key: str
              ) -> Tuple[int, List[_Item], int, Optional[str]]:
    """One cursor page of a start-ordered event feed.

    The one pager behind both event feeds: :meth:`IODAClient.get_events`
    over records, and the serving layer's ``/v1/events`` over stored
    record dicts (:mod:`repro.serve.routes`).  Checks ``limit``,
    resumes at the position ``cursor`` holds under ``query_key``, keeps
    the records whose ``start_of`` lies in ``[from_ts, until_ts)``,
    slices the page and mints the next page's cursor (``None`` on the
    last page).  Returns ``(start, page, total, next_cursor)``, where
    ``total`` counts every record the filter kept.
    """
    if limit <= 0:
        raise TimeRangeError(f"limit must be positive: {limit}")
    start = decode_cursor(cursor, query_key) if cursor is not None else 0
    if from_ts is not None or until_ts is not None:
        records = [record for record in records
                   if (from_ts is None or start_of(record) >= from_ts)
                   and (until_ts is None or start_of(record) < until_ts)]
    end = start + limit
    next_cursor = (encode_cursor(end, query_key) if end < len(records)
                   else None)
    return start, list(records[start:end]), len(records), next_cursor


@dataclass(frozen=True)
class SignalPayload:
    """One signal's data as the API would return it."""

    entity: str
    signal: str
    from_ts: int
    until_ts: int
    step: int
    values: Tuple[float, ...]


@dataclass(frozen=True)
class EventPage:
    """One page of the curated-event feed.

    ``cursor`` is the only way to fetch the next page: pass it back via
    ``get_events(..., cursor=page.cursor)``.  It is opaque — bound to
    the query's filters and the feed revision, so a cursor minted by
    one query cannot silently page through another.  ``None`` means the
    feed is exhausted.
    """

    events: Tuple[OutageRecord, ...]
    total: int
    cursor: Optional[str] = None


class IODAClient:
    """Programmatic query interface over the platform.

    ``records`` is a static curated dataset (the common, post-run
    case).  A **live** client instead passes ``feed`` — a callable
    returning the records curated so far — plus ``revision``, a value
    (or zero-argument callable) identifying the feed's current state;
    cursors bind to the revision at mint time and raise
    :class:`~repro.errors.CursorError` once it moves.
    """

    def __init__(self, platform: IODAPlatform,
                 records: Sequence[OutageRecord] = (), *,
                 feed: Optional[Callable[[], Sequence[OutageRecord]]]
                 = None,
                 revision: Union[Callable[[], Any], Any, None] = None):
        if feed is not None and records:
            raise ValueError("pass either records or a live feed=, "
                             "not both")
        self._platform = platform
        self._dashboard = Dashboard(platform)
        self._feed = feed
        self._revision = revision
        self._records = sorted(records, key=lambda r: r.span.start)

    # -- signals --------------------------------------------------------------

    def get_signal(self, entity: Entity, signal: SignalKind,
                   from_ts: int, until_ts: int) -> SignalPayload:
        """Signal values for an entity over [from_ts, until_ts)."""
        if until_ts <= from_ts:
            raise TimeRangeError(
                f"until ({until_ts}) must exceed from ({from_ts})")
        series = self._platform.signal(
            entity, signal, TimeRange(from_ts, until_ts))
        return SignalPayload(
            entity=str(entity),
            signal=signal.value,
            from_ts=series.start,
            until_ts=series.end,
            step=series.width,
            values=tuple(float(v) for v in series.values),
        )

    def get_all_signals(self, entity: Entity, from_ts: int,
                        until_ts: int) -> Dict[str, SignalPayload]:
        """All three signals keyed by signal name."""
        return {kind.value: self.get_signal(entity, kind, from_ts,
                                            until_ts)
                for kind in SignalKind}

    # -- alerts ----------------------------------------------------------------

    def get_alerts(self, entity: Entity, from_ts: int,
                   until_ts: int) -> List[DashboardEntry]:
        """Alert episodes for an entity over a window."""
        return self._dashboard.entries(
            entity, TimeRange(from_ts, until_ts))

    # -- events -----------------------------------------------------------------

    def get_events(self, country_iso2: Optional[str] = None,
                   from_ts: Optional[int] = None,
                   until_ts: Optional[int] = None, *,
                   limit: int = 50,
                   cursor: Optional[str] = None) -> EventPage:
        """Paginated curated-event feed with optional filters.

        Paging parameters (``limit``, ``cursor``) are keyword-only.

        **Cursor contract.**  ``EventPage.cursor`` is an opaque token:

        - Mint one only by calling this method; pass it back verbatim
          via ``cursor=`` to fetch the next page.
        - A cursor binds to the exact filters it was minted with *and*
          to the feed revision (the record set — or, for a live
          streaming client, the watermark — the page was served from).
          Reusing it with different filters, or under a different
          feed revision (after the feed changed, or on a client whose
          feed is at another revision), raises
          :class:`~repro.errors.CursorError`.
        - So does any tampered, truncated, or unsupported-version
          token.  ``CursorError`` subclasses
          :class:`~repro.errors.PaginationError`, so broad handlers
          keep working; recover by restarting pagination without a
          cursor.
        - Cursors never expire on their own and are safe to persist
          across processes as long as the feed is unchanged.
        """
        maybe_fault("ioda.api.get_events",
                    key=country_iso2 or "events-feed")
        records = self._current_records()
        query_key = self._query_key(country_iso2, from_ts, until_ts,
                                    records)
        if country_iso2 is not None:
            records = [record for record in records
                       if record.country_iso2 == country_iso2.upper()]
        _, page, total, next_cursor = page_feed(
            records, lambda record: record.span.start, from_ts=from_ts,
            until_ts=until_ts, limit=limit, cursor=cursor,
            query_key=query_key)
        return EventPage(events=tuple(page), total=total,
                         cursor=next_cursor)

    # -- cursors ----------------------------------------------------------------

    def _current_records(self) -> List[OutageRecord]:
        if self._feed is None:
            return self._records
        return sorted(self._feed(), key=lambda r: r.span.start)

    def _query_key(self, country_iso2: Optional[str],
                   from_ts: Optional[int], until_ts: Optional[int],
                   records: Sequence[OutageRecord]) -> str:
        """The key binding a cursor to its filters and feed revision."""
        if self._revision is not None:
            revision = (self._revision()
                        if callable(self._revision) else self._revision)
        else:
            revision = len(records)
        country = country_iso2.upper() if country_iso2 else "-"
        return (f"{country}.{'-' if from_ts is None else from_ts}"
                f".{'-' if until_ts is None else until_ts}.r{revision}")
