"""The content-addressed artifact store behind the serving layer.

``repro serve build`` walks a finished run once and precomputes every
servable surface into a directory of immutable JSON objects:

- ``events/all`` and ``events/country/<ISO2>`` — the curated outage
  records (full ordered lists; the event routes slice cursor pages out
  of them),
- ``tiles/<ISO2>/<kind>/z<z>/<i>`` — per-country, per-signal series
  tiles at several zoom levels (zoom ``z`` splits the study period into
  ``ZOOM_BASE**z`` tiles, each mean-downsampled to at most
  ``tile_bins`` points),
- ``tiles/index`` — the tile pyramid's geometry (countries, kinds,
  zooms, period) a dashboard needs to navigate it,
- ``health`` and ``summary`` — the run's fidelity scorecard and
  headline counts.

Every object is stored under a blake2b content address computed with
the same :func:`repro.exec.cachestore.fingerprint` that keys the shard
cache and the run registry — and that address **is** the artifact's
HTTP ETag: the serving routes return it verbatim on every 200 and
honour ``If-None-Match`` with a 304, so conditional revalidation is a
string compare against the store's own addressing scheme.  The
``manifest.json`` at the store root maps resource names to addresses
and byte sizes.

The store is write-once: :meth:`ArtifactStore.create` →
:meth:`~_StoreBuilder.put` → :meth:`~_StoreBuilder.finish` builds it,
:meth:`ArtifactStore.open` serves it.  :func:`build_store` is the
one-shot builder over a :class:`~repro.api.RunResult` (or bare
``PipelineResult``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, \
    Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, ServeError
from repro.exec.cachestore import fingerprint
from repro.io import record_to_dict
from repro.signals.entities import Entity
from repro.signals.kinds import SignalKind
from repro.timeutils.timestamps import TimeRange

__all__ = ["ArtifactStore", "build_store", "check_build_options",
           "DEFAULT_TILE_BINS", "DEFAULT_ZOOMS", "ZOOM_BASE", "tile_count"]

#: Maximum points per tile: one dashboard-panel's worth of resolution.
DEFAULT_TILE_BINS = 512

#: Zoom levels the builder precomputes (coarse → fine).
DEFAULT_ZOOMS: Tuple[int, ...] = (0, 1, 2)

#: Each zoom level splits the period into ``ZOOM_BASE**z`` tiles.
ZOOM_BASE = 4

_MANIFEST_VERSION = 1


def tile_count(zoom: int) -> int:
    """Tiles covering the period at ``zoom``."""
    return ZOOM_BASE ** zoom


def _canonical_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class _StoreBuilder:
    """The write side of an :class:`ArtifactStore` (write-once)."""

    def __init__(self, root: Path):
        self._root = root
        self._objects = root / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._resources: Dict[str, Dict[str, Any]] = {}
        self._finished = False

    def put(self, resource: str, payload: Any) -> str:
        """Store ``payload`` under ``resource``; return its address."""
        if self._finished:
            raise ServeError("artifact store is already finished")
        body = _canonical_bytes(payload)
        etag = fingerprint(body.decode("utf-8"))
        path = self._objects / f"{etag}.json"
        if not path.exists():
            path.write_bytes(body)
        self._resources[resource] = {"etag": etag, "bytes": len(body)}
        return etag

    def finish(self, meta: Optional[Mapping[str, Any]] = None
               ) -> "ArtifactStore":
        """Write the manifest and return the opened read-side store."""
        if self._finished:
            raise ServeError("artifact store is already finished")
        self._finished = True
        manifest = {
            "version": _MANIFEST_VERSION,
            "created": time.time(),
            "meta": dict(meta or {}),
            "resources": {name: self._resources[name]
                          for name in sorted(self._resources)},
        }
        (self._root / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=1),
            encoding="utf-8")
        return ArtifactStore.open(self._root)


class ArtifactStore:
    """The read side: resource names → content-addressed JSON objects."""

    def __init__(self, root: Path, manifest: Mapping[str, Any]):
        self._root = root
        self._manifest = manifest
        self._resources: Mapping[str, Mapping[str, Any]] = \
            manifest["resources"]

    # -- construction -----------------------------------------------------------

    @staticmethod
    def create(root: Union[str, Path]) -> _StoreBuilder:
        """A builder writing a fresh store under ``root``."""
        return _StoreBuilder(Path(root))

    @classmethod
    def open(cls, root: Union[str, Path]) -> "ArtifactStore":
        root = Path(root)
        manifest_path = root / "manifest.json"
        if not manifest_path.is_file():
            raise ServeError(
                f"no artifact store at {root} (missing manifest.json; "
                "build one with `repro serve build`)")
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ServeError(
                f"corrupt artifact store manifest: {manifest_path}"
            ) from exc
        if manifest.get("version") != _MANIFEST_VERSION:
            raise ServeError(
                f"unsupported artifact store version: "
                f"{manifest.get('version')!r}")
        return cls(root, manifest)

    # -- reads ------------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    @property
    def manifest(self) -> Mapping[str, Any]:
        return self._manifest

    @property
    def meta(self) -> Mapping[str, Any]:
        return self._manifest.get("meta", {})

    def resources(self) -> List[str]:
        """Every resource name, sorted."""
        return sorted(self._resources)

    def __contains__(self, resource: str) -> bool:
        return resource in self._resources

    def etag(self, resource: str) -> str:
        """The content address (= HTTP ETag) of ``resource``."""
        try:
            return self._resources[resource]["etag"]
        except KeyError:
            raise ServeError(f"unknown resource: {resource!r}") from None

    def read_bytes(self, resource: str) -> Tuple[bytes, str]:
        """``(body, etag)`` for ``resource``; the body is the stored
        canonical JSON, served verbatim."""
        etag = self.etag(resource)
        path = self._root / "objects" / f"{etag}.json"
        try:
            return path.read_bytes(), etag
        except OSError as exc:
            raise ServeError(
                f"artifact object missing for {resource!r}: {path}"
            ) from exc

    def read_json(self, resource: str) -> Any:
        body, _ = self.read_bytes(resource)
        return json.loads(body)


# -- tile math -----------------------------------------------------------------


def _downsample(values: np.ndarray, max_bins: int) -> Tuple[int, np.ndarray]:
    """Mean-downsample to at most ``max_bins``; return (group, means)."""
    n = len(values)
    group = max(1, -(-n // max_bins))
    pad = (-n) % group
    if pad:
        padded = np.concatenate([values, np.full(pad, np.nan)])
    else:
        padded = values
    grouped = padded.reshape(-1, group)
    with np.errstate(invalid="ignore"):
        means = np.nanmean(grouped, axis=1)
    return group, np.nan_to_num(means, nan=0.0)


def _tile_payload(iso2: str, kind: SignalKind, zoom: int, index: int,
                  native: "np.ndarray", native_start: int,
                  native_width: int, period: TimeRange,
                  tile_bins: int) -> Dict[str, Any]:
    tiles = tile_count(zoom)
    duration = period.end - period.start
    tile_dur = -(-duration // tiles)
    t_start = period.start + index * tile_dur
    t_end = min(period.end, t_start + tile_dur)
    lo = max(0, (t_start - native_start) // native_width)
    hi = max(lo, -(-(t_end - native_start) // native_width))
    window = native[lo:hi]
    group, means = _downsample(window, tile_bins)
    return {
        "entity": f"country/{iso2}",
        "kind": kind.value,
        "zoom": zoom,
        "index": index,
        "start": int(native_start + lo * native_width),
        "width": int(group * native_width),
        "values": [round(float(v), 6) for v in means],
    }


# -- the one-shot builder ------------------------------------------------------


def check_build_options(*, tile_bins: int = DEFAULT_TILE_BINS,
                        zooms: Sequence[int] = DEFAULT_ZOOMS,
                        max_countries: Optional[int] = None
                        ) -> Tuple[int, ...]:
    """Validate :func:`build_store`'s options before any work is done;
    returns the zoom levels, sorted and deduplicated."""
    if tile_bins <= 0:
        raise ConfigurationError(
            f"tile_bins must be positive: {tile_bins}")
    zooms = tuple(sorted(set(int(z) for z in zooms)))
    if any(z < 0 for z in zooms) or not zooms:
        raise ConfigurationError(f"invalid zoom levels: {zooms}")
    if max_countries is not None and max_countries < 1:
        raise ConfigurationError(
            f"max_countries must be >= 1: {max_countries}")
    return zooms


def build_store(result: Any, root: Union[str, Path], *,
                tile_bins: int = DEFAULT_TILE_BINS,
                zooms: Sequence[int] = DEFAULT_ZOOMS,
                max_countries: Optional[int] = None) -> ArtifactStore:
    """Precompute a run's servable surfaces into a store under ``root``.

    ``result`` is a :class:`~repro.api.RunResult` (or any object with
    ``curated_records``, ``scenario`` and ``merged`` — a bare
    ``PipelineResult`` works; a ``health`` attribute, when present,
    becomes the ``health`` artifact).  Tiles cover the run's own study
    period (``result.merged.period``) for every country with curated
    records (capped at ``max_countries``, most-events first) across all
    three signals at each zoom in ``zooms``.
    """
    from repro.ioda.platform import IODAPlatform

    zooms = check_build_options(tile_bins=tile_bins, zooms=zooms,
                                max_countries=max_countries)
    records = sorted(result.curated_records,
                     key=lambda r: (r.span.start, r.country_iso2))
    period = result.merged.period
    platform = IODAPlatform(result.scenario)

    builder = ArtifactStore.create(root)

    # -- events ----------------------------------------------------------------
    by_country: Dict[str, List[Any]] = {}
    for record in records:
        by_country.setdefault(record.country_iso2, []).append(record)
    all_payload = {"total": len(records),
                   "records": [record_to_dict(r) for r in records]}
    builder.put("events/all", all_payload)
    for iso2 in sorted(by_country):
        country_records = by_country[iso2]
        builder.put(f"events/country/{iso2}", {
            "country": iso2,
            "total": len(country_records),
            "records": [record_to_dict(r) for r in country_records],
        })

    # -- tiles -----------------------------------------------------------------
    ranked = sorted(by_country,
                    key=lambda c: (-len(by_country[c]), c))
    countries = sorted(ranked[:max_countries]
                       if max_countries is not None else ranked)
    kinds = tuple(SignalKind)
    for iso2 in countries:
        entity = Entity.country(iso2)
        for kind in kinds:
            native = platform.signal(entity, kind, period)
            for zoom in zooms:
                for index in range(tile_count(zoom)):
                    builder.put(
                        f"tiles/{iso2}/{kind.value}/z{zoom}/{index}",
                        _tile_payload(iso2, kind, zoom, index,
                                      native.values, native.start,
                                      native.width, period, tile_bins))
    builder.put("tiles/index", {
        "countries": countries,
        "kinds": [k.value for k in kinds],
        "zooms": list(zooms),
        "zoom_base": ZOOM_BASE,
        "tile_bins": tile_bins,
        "period": {"start": period.start, "end": period.end},
    })

    # -- reports ---------------------------------------------------------------
    health = getattr(result, "health", None)
    if health is not None:
        builder.put("health", health.as_dict())
    builder.put("summary", _summary(records, by_country, countries,
                                    period))

    return builder.finish(meta={
        "tile_bins": tile_bins,
        "zooms": list(zooms),
        "countries": len(countries),
        "records": len(records),
        "period": {"start": period.start, "end": period.end},
    })


def _summary(records: Sequence[Any], by_country: Mapping[str, Sequence],
             tile_countries: Iterable[str],
             period: TimeRange) -> Dict[str, Any]:
    causes: Dict[str, int] = {}
    for record in records:
        cause = record.cause if record.cause else "unknown"
        causes[cause] = causes.get(cause, 0) + 1
    return {
        "total_events": len(records),
        "countries": len(by_country),
        "tile_countries": sorted(tile_countries),
        "causes": {k: causes[k] for k in sorted(causes)},
        "period": {"start": period.start, "end": period.end},
        "top_countries": sorted(
            by_country, key=lambda c: (-len(by_country[c]), c))[:10],
    }
