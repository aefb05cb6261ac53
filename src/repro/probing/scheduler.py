"""Probing rounds and the Active Probing signal.

:class:`ActiveProbingRun` simulates IODA's 10-minute probing cycles over a
time window for one entity's sampled blocks and produces the signal IODA
publishes: the number of blocks considered up after each round.

Ground truth enters through ``up_fraction``: the fraction of the entity's
(probeable) address space reachable during each round.  Blocks are ordered
by address, and an up-fraction ``f`` keeps the first ``f`` share of blocks
reachable — consistent with the BGP fast path, so a partial outage takes
down the *same* part of the network in both signals.

The run is simulated columnar, a block of rounds at a time: each block
is one RNG draw of about :data:`repro.rng.BLOCK_CELLS` cells
(:func:`repro.rng.uniform_blocks`; the generator fills row by row, so
the blocks are bit-identical to per-round draws), and beliefs are never
iterated round by round.  Because an answered round resets a block's
belief to 1.0 and every unanswered round applies the same
deterministic map, a block's belief after any round is a table lookup
on "rounds since last answer"
(:meth:`~repro.probing.trinocular.TrinocularInference.belief_iterate_tables`);
the last-answer index of every (round, block) cell is one
``maximum.accumulate`` per block, and each block's last answer is all
the state carried from one block to the next.  So a call's memory is
bounded by the block size whatever the window's length, and its
round indices fit int32.  The per-round reference loop the tests hold
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

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SignalError
from repro.probing.trinocular import TrinocularConfig, TrinocularInference
from repro.rng import uniform_blocks
from repro.signals.series import TimeSeries
from repro.timeutils.timestamps import TEN_MINUTES, TimeRange, bin_floor

__all__ = ["ActiveProbingRun"]

#: The first-down level of a block that stays UP, and the bound on a
#: window's round count.  Round indices are int32: a never-answered
#: block starts at a last answer no lower than :data:`_NO_ANSWER`, so
#: its rounds since that answer stay below 2**31.
_NEVER_DOWN = 1 << 30
#: The last-answer index of a cell whose block did not answer in it,
#: below every carried-in last answer.
_NO_ANSWER = np.int32(-_NEVER_DOWN - 1)


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

    @property
    def n_blocks(self) -> int:
        return len(self._rates)

    def up_count_series(self, window: TimeRange, up_fraction: np.ndarray,
                        rng: np.random.Generator,
                        keep: Optional[int] = None) -> TimeSeries:
        """The up-block-count series over ``window``.

        ``up_fraction[i]`` is ground truth for round ``i``.  Returns a
        series binned at the round width whose value is the number of
        blocks classified UP at the end of each round.  With ``keep``,
        only the sample's first ``keep`` blocks are probed, bit for bit
        as by a run built over those blocks alone.

        Columnar, a block of rounds at a time (see the module
        docstring).
        """
        start = bin_floor(window.start, self._round_width)
        n_rounds = -(-(window.end - start) // self._round_width)
        up = np.asarray(up_fraction, dtype=np.float64)
        if up.shape != (n_rounds,):
            raise SignalError(
                f"up_fraction has shape {up.shape}, expected ({n_rounds},)")
        if n_rounds >= _NEVER_DOWN:
            raise SignalError(f"too many rounds: {n_rounds}")

        if keep is not None and keep < 1:
            raise SignalError(f"keep must be >= 1: {keep}")
        # Address positions of the sample's first ``keep`` blocks, or
        # None for every block.
        cols = (None if keep is None or keep >= self.n_blocks
                else np.flatnonzero(self._order < keep))
        n = self.n_blocks if cols is None else len(cols)
        if self._p_answer is None:
            self._p_answer = 1.0 - self._inference.miss_likelihood(
                self._rates)
        p_answer = (self._p_answer if cols is None
                    else self._p_answer[cols])
        # Every block is up on a round whose up-fraction reaches the
        # last block's quantile, 1.0; only the other rounds need the
        # per-block ground-truth test.
        block_quantile = (np.arange(n) + 1.0) / n
        partial = ~(block_quantile[-1] <= up + 1e-12)

        # up_table[j, 0, i]: is block i UP j rounds after an answer;
        # up_table[j, 1, i]: is it UP after j unanswered rounds from
        # the prior.  Lookups clamp to the tables' last level.
        up_table = self._up_table_for(n_rounds + 1)
        limits = self._first_down
        if limits is not None:
            if cols is not None:
                limits = limits[:, cols]
            # Beliefs decay monotonically between answers, so each
            # table column is True up to its first False, and a block
            # is UP while its rounds since the last answer stay below
            # that first-down level (both verified when the table was
            # built).  A never-answered block is UP at round t while
            # t + 1 < limits[1]; starting its last answer at
            # limits[1] - limits[0] - 1, which is negative, turns that
            # into the same test against limits[0].
            last = limits[1] - limits[0] - 1
        else:
            # Never-answered cells (last answer -1) land on j = t + 1,
            # exactly their unanswered-round count from the prior.
            last = np.full(n, -1, dtype=np.int32)
            block = np.arange(n) if cols is None else cols
            top = np.int32(up_table.shape[0] - 1)

        values = np.empty(n_rounds, dtype=np.float64)
        for first, draws in uniform_blocks(rng, n_rounds, n):
            rows = slice(first, first + len(draws))
            # A down block never answers (draws are in [0, 1) and its
            # answer probability is 0), so "answered" is the draw
            # beating p_answer on a block that ground truth keeps up.
            answered = draws < p_answer
            part = np.flatnonzero(partial[rows])
            if len(part):
                answered[part] &= (block_quantile[None, :]
                                   <= up[first + part, None] + 1e-12)
            # The last answered round of every cell, carrying each
            # block's last answer in from the previous block.
            round_index = np.arange(rows.start, rows.stop,
                                    dtype=np.int32)[:, None]
            last_answer = answered.astype(np.int32)
            last_answer *= round_index - _NO_ANSWER
            last_answer += _NO_ANSWER
            np.maximum(last_answer[0], last, out=last_answer[0])
            np.maximum.accumulate(last_answer, axis=0, out=last_answer)
            last = last_answer[-1].copy()
            since = round_index - last_answer
            if limits is not None:
                up_mask = since < limits[0]
            else:
                from_prior = (last_answer < 0).astype(np.int8)
                np.minimum(since, top, out=since)
                up_mask = up_table[since, from_prior, block[None, :]]
            values[rows] = np.count_nonzero(up_mask, axis=1)
        return TimeSeries(start, self._round_width, values)

    def _up_table_for(self, max_levels: int) -> np.ndarray:
        """The classify-up lookup table, memoized across windows.

        The belief iterates are a pure function of the (fixed) response
        rates, so a table that stopped early (at its fixed point, or at
        a 2-cycle both of whose phases classify alike) serves every
        window, and a longer-than-needed table gives identical lookups
        (levels past a request's depth are never indexed).  A table cut
        at its depth bound is rebuilt to a longer request's depth.
        """
        if self._up_table is None or (
                not self._up_table_converged
                and self._up_table.shape[0] < max_levels + 1):
            tables = self._inference.belief_iterate_tables(
                self._rates, max_levels=max_levels)
            self._up_table = self._inference.batch_classify_up(tables)
            self._up_table_converged = tables.shape[0] < max_levels + 1
            self._first_down = self._first_down_of(self._up_table)
        return self._up_table

    @staticmethod
    def _first_down_of(up_table: np.ndarray) -> np.ndarray | None:
        """Per-column first level classified DOWN, or ``None``.

        Valid only when every column of the table is True up to a single
        transition (beliefs decay monotonically between answers, so this
        holds in practice) and no block goes down later from the prior
        than from 1.0 (the belief map is increasing and the prior is
        below 1.0); all-True columns get the unreachable
        :data:`_NEVER_DOWN`.  Both are verified exactly against the
        table — a table that breaks either returns ``None`` and lookups
        fall back to the clamped gather.
        """
        first_down = np.where(up_table.all(axis=0), _NEVER_DOWN,
                              np.argmin(up_table, axis=0))
        levels = np.arange(up_table.shape[0], dtype=np.int64)[:, None, None]
        if (np.array_equal(up_table, levels < first_down[None, :, :])
                and (first_down[1] <= first_down[0]).all()):
            return first_down.astype(np.int32)
        return None
