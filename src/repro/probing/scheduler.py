"""Probing rounds and the Active Probing signal.

:class:`ActiveProbingRun` simulates IODA's 10-minute probing cycles over a
time window for one entity's sampled blocks and produces the signal IODA
publishes: the number of blocks considered up after each round.

Ground truth enters through ``up_fraction``: the fraction of the entity's
(probeable) address space reachable during each round.  Blocks are ordered
by address, and an up-fraction ``f`` keeps the first ``f`` share of blocks
reachable — consistent with the BGP fast path, so a partial outage takes
down the *same* part of the network in both signals.

The whole run is simulated columnar: one RNG block draw covers every
round (bit-identical to per-round draws — the generator fills row by
row), and beliefs are never iterated round by round.  Because an
answered round resets a block's belief to 1.0 and every unanswered
round applies the same deterministic map, a block's belief after any
round is a table lookup on "rounds since last answer"
(:meth:`~repro.probing.trinocular.TrinocularInference.belief_iterate_tables`);
the last-answer index for every (round, block) cell is one
``maximum.accumulate``.  The per-round reference loop the tests hold
this to, bit for bit, lives in ``tests/oracles.py``.

The kernel compares each draw with its block's answer probability once,
and applies the ground-truth block prefix only on rounds that keep fewer
than every block up (about 3% of rounds in the canonical run): on the
others the prefix test is true for every block.

One run serves a whole country: a region probes the first ``keep``
blocks of the country's sample (``up_count_series(..., keep=)``), whose
address order is the subsequence of the run's address order made of
those blocks — exactly their own stable sort.  Every per-block quantity
(answer probability, belief iterates, first-down level) is computed
elementwise, so the region reads the same floats a run built over its
blocks alone would, and the country's tables serve all its regions.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SignalError
from repro.probing.trinocular import TrinocularConfig, TrinocularInference
from repro.signals.series import TimeSeries
from repro.timeutils.timestamps import TEN_MINUTES, TimeRange, bin_floor

__all__ = ["ActiveProbingRun"]


class ActiveProbingRun:
    """Simulates rounds of probing for one entity.

    Built from a block sample's parallel arrays (see
    :func:`repro.probing.blocks.sample_blocks`): each block's /24 index
    and its response rate, P(single probe answered | block up), which
    must lie in (0, 1].  :meth:`up_count_series` probes every block,
    or with ``keep`` only the first ``keep`` blocks of the sample.
    """

    def __init__(self, slash24: Sequence[int] | np.ndarray,
                 response_rate: Sequence[float] | np.ndarray,
                 config: TrinocularConfig | None = None,
                 round_width: int = TEN_MINUTES):
        slash24 = np.asarray(slash24, dtype=np.int64)
        rates = np.asarray(response_rate, dtype=np.float64)
        if slash24.ndim != 1 or rates.shape != slash24.shape:
            raise SignalError(
                f"block arrays must be 1-D and equal in length: "
                f"{slash24.shape} and {rates.shape}")
        if not len(slash24):
            raise SignalError("no probeable blocks")
        bad = ~((rates > 0.0) & (rates <= 1.0))
        if bad.any():
            raise ConfigurationError(
                f"response rate must be in (0, 1]: {rates[bad][0]}")
        self._inference = TrinocularInference(config)
        self._round_width = round_width
        # Blocks in address order (a stable sort, so equal indices keep
        # their sample order); _order[i] is the sample index of the
        # block at address position i.
        self._order = np.argsort(slash24, kind="stable")
        self._rates = rates[self._order]
        # Lazy caches for the columnar path: rates are fixed for the
        # life of the run, so the answer probability and the classify-up
        # lookup table are pure functions of them (see _up_table_for).
        self._p_answer: np.ndarray | None = None
        self._up_table: np.ndarray | None = None
        self._up_table_converged = False
        self._first_down: np.ndarray | None = None
        self._limits: Dict[type, np.ndarray] = {}

    @property
    def n_blocks(self) -> int:
        return len(self._rates)

    @property
    def inference(self) -> TrinocularInference:
        return self._inference

    def up_count_series(self, window: TimeRange, up_fraction: np.ndarray,
                        rng: np.random.Generator,
                        keep: Optional[int] = None) -> TimeSeries:
        """The up-block-count series over ``window``.

        ``up_fraction[i]`` is ground truth for round ``i``.  Returns a
        series binned at the round width whose value is the number of
        blocks classified UP at the end of each round.  With ``keep``,
        only the sample's first ``keep`` blocks are probed, bit for bit
        as by a run built over those blocks alone.

        Columnar over the whole window (see the module docstring).
        """
        start = bin_floor(window.start, self._round_width)
        n_rounds = -(-(window.end - start) // self._round_width)
        up = np.asarray(up_fraction, dtype=np.float64)
        if up.shape != (n_rounds,):
            raise SignalError(
                f"up_fraction has shape {up.shape}, expected ({n_rounds},)")

        if keep is not None and keep < 1:
            raise SignalError(f"keep must be >= 1: {keep}")
        # Address positions of the sample's first ``keep`` blocks, or
        # None for every block.
        cols = (None if keep is None or keep >= self.n_blocks
                else np.flatnonzero(self._order < keep))
        n = self.n_blocks if cols is None else len(cols)
        # One draw for every (round, block) cell: the generator fills
        # the matrix row-major, so row r carries the exact floats a
        # per-round loop's r-th rng.random(n) call would.
        draws = rng.random((n_rounds, n))
        if self._p_answer is None:
            self._p_answer = 1.0 - self._inference.miss_likelihood(
                self._rates)
        p_answer = (self._p_answer if cols is None
                    else self._p_answer[cols])
        # A down block never answers (draws are in [0, 1) and its
        # answer probability is 0), so "answered" is the draw beating
        # p_answer on a block that ground truth keeps up.  Every block
        # is up on a round whose up-fraction reaches the last block's
        # quantile, 1.0; only the other rounds need the per-block test.
        answered = draws < p_answer
        block_quantile = (np.arange(n) + 1.0) / n
        partial = np.flatnonzero(~(block_quantile[-1] <= up + 1e-12))
        if len(partial):
            answered[partial] &= (
                block_quantile[None, :] <= up[partial, None] + 1e-12)

        # up_table[j, 0, i]: is block i UP j rounds after an answer;
        # up_table[j, 1, i]: is it UP after j unanswered rounds from
        # the prior.  Lookups clamp to the tables' fixed point.
        up_table = self._up_table_for(n_rounds + 1)
        idx_dtype = np.int16 if n_rounds < 32000 else np.int64
        round_index = np.arange(n_rounds, dtype=idx_dtype)[:, None]
        last_answer = np.maximum.accumulate(
            np.where(answered, round_index, idx_dtype(-1)), axis=0)
        # Never-answered cells (last_answer == -1) land on j = t + 1,
        # which is exactly their unanswered-round count from the prior.
        limits = self._first_down_limits(idx_dtype)
        if limits is not None:
            if cols is not None:
                limits = limits[:, cols]
            # Beliefs decay monotonically between answers, so each table
            # column is True up to its first False (verified when the
            # table was built): the clamped lookup collapses to comparing
            # rounds-since-answer against that first-down level.
            limit = np.where(last_answer < 0, limits[1], limits[0])
            up_mask = (round_index - last_answer) < limit
        else:
            j = np.minimum(round_index - last_answer,
                           idx_dtype(up_table.shape[0] - 1))
            from_prior = (last_answer < 0).astype(np.int8)
            block = np.arange(n) if cols is None else cols
            up_mask = up_table[j, from_prior, block[None, :]]
        values = np.count_nonzero(up_mask, axis=1).astype(np.float64)
        return TimeSeries(start, self._round_width, values)

    def _up_table_for(self, max_levels: int) -> np.ndarray:
        """The classify-up lookup table, memoized across windows.

        The belief iterates are a pure function of the (fixed) response
        rates, so a table that reached its fixed point serves every
        window, and a longer-than-needed table gives identical lookups
        (levels past a request's depth are never indexed).  Only rebuilt
        when an unconverged cached table is shorter than the request.

        The first table is built twice as deep as requested.  A
        converging table stops at its fixed point whatever the bound,
        so this costs it nothing; a block whose iterates never converge
        (they can settle into a 2-cycle of adjacent floats) keeps the
        table unconverged, and the headroom absorbs the spread of
        investigation-window lengths.  A rebuild, for a request beyond
        that (a whole-period tile), is built to the request's depth.
        """
        if self._up_table is None or (
                not self._up_table_converged
                and self._up_table.shape[0] < max_levels + 1):
            depth = (2 * max_levels if self._up_table is None
                     else max_levels)
            tables = self._inference.belief_iterate_tables(
                self._rates, max_levels=depth)
            self._up_table = self._inference.batch_classify_up(tables)
            self._up_table_converged = tables.shape[0] < depth + 1
            self._first_down = self._first_down_of(self._up_table)
            self._limits.clear()
        return self._up_table

    def _first_down_limits(self, idx_dtype) -> np.ndarray | None:
        """The first-down levels in the round-index dtype, memoized.

        Levels past the dtype's range clamp to its maximum: a run short
        enough for that dtype never counts that many rounds, so the
        comparison against a clamped level is unchanged.
        """
        if self._first_down is None:
            return None
        limits = self._limits.get(idx_dtype)
        if limits is None:
            limits = np.minimum(
                self._first_down, np.iinfo(idx_dtype).max).astype(idx_dtype)
            self._limits[idx_dtype] = limits
        return limits

    @staticmethod
    def _first_down_of(up_table: np.ndarray) -> np.ndarray | None:
        """Per-column first level classified DOWN, or ``None``.

        Valid only when every column of the table is True up to a single
        transition (beliefs decay monotonically between answers, so this
        holds in practice); all-True columns get an unreachable sentinel.
        The structure is verified exactly against the table — a
        non-monotone table returns ``None`` and lookups fall back to the
        clamped gather.
        """
        first_down = np.where(up_table.all(axis=0),
                              np.iinfo(np.int64).max,
                              np.argmin(up_table, axis=0))
        levels = np.arange(up_table.shape[0], dtype=np.int64)[:, None, None]
        if np.array_equal(up_table, levels < first_down[None, :, :]):
            return first_down
        return None
