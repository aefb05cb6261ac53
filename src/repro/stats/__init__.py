"""Statistics used by the analysis layer.

Everything the paper's figures and tables need is implemented here from
first principles so the analysis code has no hidden dependencies:

- :mod:`repro.stats.ecdf` — empirical CDFs (every figure 4-14 is a CDF).
- :mod:`repro.stats.descriptive` — medians, quantiles, fractions.
- :mod:`repro.stats.rolling` — sliding-window medians (IODA's alert engine
  compares each bin against the median of a trailing history window).
- :mod:`repro.stats.binomial` — exact two-tailed binomial test (Figure 15's
  Friday-deficit significance test).
- :mod:`repro.stats.contingency` — day-level event/condition probability
  tables (Table 4).
"""

from repro.stats.ecdf import ECDF
from repro.stats.descriptive import (
    fraction,
    fraction_multiple_of,
    median,
    quantile,
)
from repro.stats.binomial import binomial_pmf, binomial_test_two_tailed
from repro.stats.contingency import ConditionalRates, DayLevelContingency

__all__ = [
    "ECDF",
    "fraction",
    "fraction_multiple_of",
    "median",
    "quantile",
    "binomial_pmf",
    "binomial_test_two_tailed",
    "ConditionalRates",
    "DayLevelContingency",
]
