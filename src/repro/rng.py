"""Deterministic random substreams.

Every stochastic component of the synthetic world derives its own
independent generator from the scenario seed plus a string path (e.g.
``("topology", "SY")``).  This makes the whole pipeline reproducible while
keeping components order-independent: adding a country or reordering
generation does not perturb any other component's draws.

The signal kernels draw their per-cell uniforms through
:func:`uniform_blocks`, a fixed number of cells at a time, so their
working set stays cache-sized however long the window is.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Tuple, Union

import numpy as np

from repro.obs.runtime import current

__all__ = ["BLOCK_CELLS", "derive_seed", "substream", "uniform_blocks"]

_Label = Union[str, int]

#: Cells per block of :func:`uniform_blocks` (512 rows of 128 columns):
#: a few such float64 blocks and their masks fit in a core's L2 cache.
BLOCK_CELLS = 1 << 16


def derive_seed(seed: int, *labels: _Label) -> int:
    """Derive a 64-bit child seed from ``seed`` and a label path.

    Uses BLAKE2b over the canonical encoding of the path, so distinct paths
    give independent seeds and the mapping is stable across Python versions
    (unlike ``hash``).
    """
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(str(int(seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x1f")
        hasher.update(str(label).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "big")


def substream(seed: int, *labels: _Label) -> np.random.Generator:
    """A numpy generator seeded deterministically from ``seed`` and labels.

    >>> g1 = substream(7, "topology", "SY")
    >>> g2 = substream(7, "topology", "SY")
    >>> float(g1.random()) == float(g2.random())
    True
    """
    obs = current()
    if obs.enabled:
        obs.metrics.counter("rng.substreams",
                            component=str(labels[0]) if labels
                            else "root").inc()
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *labels)))


def uniform_blocks(rng: np.random.Generator, n_rows: int,
                   n_cols: int) -> Iterator[Tuple[int, np.ndarray]]:
    """An ``(n_rows, n_cols)`` uniform draw, in blocks of whole rows.

    Yields ``(first_row, draws)`` pairs whose ``draws`` stack to exactly
    ``rng.random((n_rows, n_cols))``: the generator fills an array row
    by row, one 64-bit output per double, so consecutive block draws
    consume the stream one whole draw would.  Each block holds about
    :data:`BLOCK_CELLS` cells, and at least one row.

    >>> whole = substream(7, "doc").random((5, 3))
    >>> blocks = uniform_blocks(substream(7, "doc"), 5, 3)
    >>> bool((np.vstack([d for _, d in blocks]) == whole).all())
    True
    """
    rows = max(1, BLOCK_CELLS // max(1, n_cols))
    for first in range(0, n_rows, rows):
        yield first, rng.random((min(rows, n_rows - first), n_cols))
