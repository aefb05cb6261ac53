"""Trinocular-style Bayesian block-state inference.

Each probed /24 block carries a belief ``B = P(block up)``.  Every round
the prober sends up to ``probes_per_round`` ICMP echoes to the block
(stopping early on a reply).  Evidence updates the belief by Bayes' rule:

- A reply proves the block is up (no false positives are modelled for
  unsolicited replies): ``B = 1``.
- ``k`` unanswered probes multiply the up-likelihood by ``(1 - A)^k``
  where ``A`` is the block's per-probe response rate, so
  ``B' = B(1-A)^k / (B(1-A)^k + (1-B))``.

Between rounds the belief decays toward the prior, modelling state drift.
IODA publishes three labels per block (``UP``, ``DOWN``, ``UNKNOWN``,
§3.1.1); the Active Probing signal counts only the ``UP`` ones, blocks
whose belief is above :attr:`TrinocularConfig.up_threshold`.

Because a reply resets the belief to 1.0 and every unanswered round
applies the same map, :meth:`TrinocularInference.belief_iterate_tables`
tabulates a block's belief by rounds since its last answer, and the
kernel in :mod:`repro.probing.scheduler` looks beliefs up there instead
of updating them round by round.  The per-round update it is tested
against, bit for bit, is the probing oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["TrinocularConfig", "TrinocularInference"]


@dataclass(frozen=True)
class TrinocularConfig:
    """Inference parameters (defaults follow the Trinocular paper's
    spirit: strong evidence needed to flip state)."""

    probes_per_round: int = 12
    up_threshold: float = 0.9
    prior_up: float = 0.92
    belief_drift: float = 0.02  # per-round pull toward the prior

    def __post_init__(self) -> None:
        if not 0.0 < self.up_threshold <= 1.0:
            raise ConfigurationError("need 0 < up_threshold <= 1")
        if self.probes_per_round < 1:
            raise ConfigurationError("probes_per_round must be >= 1")
        if not 0.0 < self.prior_up < 1.0:
            raise ConfigurationError(f"bad prior: {self.prior_up}")


class TrinocularInference:
    """Belief tracking for probed blocks."""

    def __init__(self, config: TrinocularConfig | None = None):
        self._config = config or TrinocularConfig()

    def batch_classify_up(self, beliefs: np.ndarray) -> np.ndarray:
        """Boolean mask of blocks classified UP."""
        return beliefs > self._config.up_threshold

    def miss_likelihood(self, response_rates: np.ndarray) -> np.ndarray:
        """``(1 - rate) ** probes_per_round`` per block: P(every probe
        of a round to an up block goes unanswered)."""
        return (1.0 - response_rates) ** self._config.probes_per_round

    def belief_iterate_tables(self, response_rates: np.ndarray,
                              max_levels: int) -> np.ndarray:
        """Iterates of the unanswered-round belief map, per block.

        An unanswered round applies the same deterministic map ``f`` to
        a block's belief (Bayes posterior on ``probes_per_round``
        misses, then drift toward the prior), and an answered round
        resets the belief to 1.0.  A block's belief after any round is
        therefore a pure function of how many unanswered rounds have
        passed since the last answer: ``f^j(1.0)``, or ``f^j(prior)``
        for blocks never answered.  This returns those iterates as a
        table of shape ``(levels, 2, n_blocks)`` — ``[j, 0]`` is
        ``f^j(1.0)`` and ``[j, 1]`` is ``f^j(prior)``.  At most
        ``max_levels + 1`` levels are produced, and the table stops
        early once every later level classifies like its last one, so
        lookups past the last level just clamp to it:

        - at the iterates' (float-exact) fixed point;
        - at a 2-cycle (``f^(k+1) == f^(k-1)``, which adjacent floats
          can settle into) whose two phases classify every block alike.

        A block with response rate 1.0 never misses while up, so one
        unanswered round from belief 1.0 is 0/0: its answered-path
        iterates are NaN, which classify not UP, as a per-round update
        gives.  The stop tests count NaN equal to NaN.
        """
        miss = self.miss_likelihood(response_rates)
        prior = self._config.prior_up
        drift = self._config.belief_drift
        n = len(response_rates)
        levels = [np.stack([np.ones(n), np.full(n, prior)])]
        for _ in range(max_levels):
            beliefs = levels[-1]
            numerator = beliefs * miss
            with np.errstate(invalid="ignore"):
                posterior = numerator / (numerator + (1.0 - beliefs))
            drifted = posterior + drift * (prior - posterior)
            if np.array_equal(drifted, beliefs, equal_nan=True):
                break
            if (len(levels) > 1
                    and np.array_equal(drifted, levels[-2], equal_nan=True)
                    and np.array_equal(self.batch_classify_up(drifted),
                                       self.batch_classify_up(beliefs))):
                break
            levels.append(drifted)
        return np.stack(levels)
