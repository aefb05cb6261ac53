"""BGP measurement substrate.

IODA's BGP signal counts, every 5 minutes, the number of /24-equivalents
visible to at least 50% of "full-feed" peers across all RouteViews and RIPE
RIS collectors (§3.1.1).  :mod:`repro.bgp.view` computes that count per
bin from the entity's ground-truth reachable fraction: a prefix is
visible with the probability that a quorum of full-feed peers carries
it, each peer missing it at a fixed rate.  Collectors, peer sessions and
update streams are not simulated.
"""

from repro.bgp.view import visible_slash24_series

__all__ = ["visible_slash24_series"]
