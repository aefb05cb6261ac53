"""Probed /24 blocks.

Trinocular only probes blocks with enough historically responsive addresses
to make inference feasible; each block carries a response rate ``A`` — the
probability that a single probe to the block elicits a reply while the
block is up.  Mobile-operator blocks have very low response rates (NAT
pools answer for few addresses), which is the mechanism behind IODA's
limited visibility into mobile shutdowns (§4).

A sample is held as two parallel arrays, the blocks' /24 indices and
their response rates; :class:`repro.probing.scheduler.ActiveProbingRun`
validates the rates when it is built from them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.topology.generator import CountryNetwork

__all__ = ["sample_blocks"]


def sample_blocks(network: CountryNetwork, rng: np.random.Generator,
                  max_blocks: int = 256,
                  min_response_rate: float = 0.15
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Select the blocks IODA would probe in a country.

    Samples up to ``max_blocks`` /24s proportionally across the country's
    non-mobile ASes, drawing each block's response rate from a Beta
    distribution and dropping blocks below Trinocular's usability floor.
    The sample preserves address-space order so severity-ordered outages
    hit the same fraction of blocks as of BGP prefixes.  Returns the
    ``(slash24, response_rate)`` arrays, empty when the country has no
    non-mobile space.
    """
    index_ranges = [
        (prefix.network >> 8, (prefix.network >> 8) + prefix.num_slash24s)
        for network_as in network.ases if not network_as.mobile
        for prefix in network_as.prefixes
    ]
    if not index_ranges:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    indices = np.concatenate(
        [np.arange(lo, hi, dtype=np.int64) for lo, hi in index_ranges])
    rates = rng.beta(2.0, 3.0, size=len(indices))
    usable = rates >= min_response_rate
    indices, rates = indices[usable], rates[usable]
    if len(indices) > max_blocks:
        picks = np.linspace(0, len(indices) - 1, max_blocks).astype(np.int64)
        indices, rates = indices[picks], rates[picks]
    return indices, rates
