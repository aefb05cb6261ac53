"""Active probing substrate (Trinocular-style).

IODA probes ~4.2M /24 blocks with ICMP at least every 10 minutes and labels
each block up / down / unknown using Trinocular's Bayesian inference
(§3.1.1).  The per-entity Active Probing signal is the count of blocks
considered up after each 10-minute round.

- :mod:`repro.probing.blocks` — the sample of probed /24 blocks and their
  historical response rates.
- :mod:`repro.probing.trinocular` — the belief-update inference, as
  per-block tables of belief by rounds since the last answer.
- :mod:`repro.probing.scheduler` — 10-minute probing rounds over a window,
  producing the up-count time series.
"""

from repro.probing.blocks import sample_blocks
from repro.probing.trinocular import TrinocularConfig, TrinocularInference
from repro.probing.scheduler import ActiveProbingRun

__all__ = [
    "sample_blocks",
    "TrinocularConfig",
    "TrinocularInference",
    "ActiveProbingRun",
]
