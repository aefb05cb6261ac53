"""repro.serve — the async serving layer over a content-addressed store.

The ROADMAP's "serve the dashboard at millions-of-users scale" item:
a finished run is precomputed into an immutable, content-addressed
artifact store (:mod:`repro.serve.artifacts` — event feeds, signal
tile pyramids, health/summary reports; blake2b addresses double as
HTTP ETags), served by a stdlib-asyncio HTTP layer
(:mod:`repro.serve.routes` routing + :mod:`repro.serve.http`
transport) whose hot artifacts live in a bounded single-flight async
LRU (:mod:`repro.serve.cache`), and load-tested by a seeded
deterministic harness (:mod:`repro.serve.loadgen`) whose SLO report
feeds the ``serve loadgen --compare`` baseline gate.

    store = api.run(seed=2023).serve("artifacts/store")
    app = ServeApp(store)                      # routes + cache
    report = run_loadgen(store, config=LoadgenConfig(mix="dashboard"))

CLI: ``repro serve build`` / ``repro serve run`` /
``repro serve loadgen``.
"""

from repro.serve.artifacts import ArtifactStore, DEFAULT_TILE_BINS, \
    DEFAULT_ZOOMS, ZOOM_BASE, build_store, tile_count
from repro.serve.cache import DEFAULT_SERVE_CACHE_SIZE, AsyncLRU
from repro.serve.http import ServeServer, serve_forever
from repro.serve.loadgen import LoadgenConfig, MIXES, SLOReport, \
    run_loadgen
from repro.serve.routes import LATENCY_BUCKETS, Response, ServeApp

__all__ = [
    "ArtifactStore",
    "AsyncLRU",
    "DEFAULT_SERVE_CACHE_SIZE",
    "DEFAULT_TILE_BINS",
    "DEFAULT_ZOOMS",
    "LATENCY_BUCKETS",
    "LoadgenConfig",
    "MIXES",
    "Response",
    "SLOReport",
    "ServeApp",
    "ServeServer",
    "ZOOM_BASE",
    "build_store",
    "run_loadgen",
    "serve_forever",
    "tile_count",
]
