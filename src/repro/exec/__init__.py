"""repro.exec — the sharded, cached pipeline execution engine.

The observation+curation stage dominates pipeline cost and is
embarrassingly parallel by country (the paper observes its 155 countries
independently, §3–4).  This package splits that work into deterministic
country shards, runs them through one worker pool — inline, or on
process workers that keep the world resident — caches each shard's
output content-addressed by everything that determines it, and merges
the results byte-identically to a serial run.  The stream engine sends
its per-country adjudication through the same pool.

Public surface:

- :class:`ExecutorConfig` / :class:`ShardedCurationExecutor` — scheduling.
- :class:`~repro.exec.workers.WorkerPool` — the one dispatcher of
  per-country work, batch and stream.
- :class:`ShardPlan` — deterministic country sharding.
- :class:`CacheStore` / :func:`fingerprint` / :data:`CACHE_VERSION` —
  content-addressed stage caching.
- :class:`ExecStats` — per-stage wall time, cache hit/miss counters, and
  shard skew, surfaced by ``repro run --stats``.
"""

from repro.exec.cachestore import CACHE_VERSION, CacheStore, fingerprint
from repro.exec.shards import DEFAULT_N_SHARDS, Shard, ShardPlan
from repro.exec.stats import ExecStats, StageTiming
from repro.exec.workers import BACKENDS, ExecutorConfig, \
    ShardedCurationExecutor, backend_label

__all__ = [
    "BACKENDS",
    "CACHE_VERSION",
    "CacheStore",
    "DEFAULT_N_SHARDS",
    "ExecStats",
    "ExecutorConfig",
    "Shard",
    "ShardPlan",
    "ShardedCurationExecutor",
    "StageTiming",
    "backend_label",
    "fingerprint",
]
