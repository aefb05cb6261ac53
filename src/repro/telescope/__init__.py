"""Network telescope substrate.

IODA's Telescope signal counts unique source IPs per 5-minute bin in the
traffic arriving at an unsolicited-traffic telescope (UCSD, later Merit),
after anti-spoofing and noise filtering (§3.1.1).  Internet background
radiation (IBR) from a country tracks how much of that country is up, with
a strong diurnal cycle and high variance — hence the telescope's unusually
low 25% alert threshold.

- :mod:`repro.telescope.counter` — the per-bin unique-source series,
  drawn from the count distribution filtered IBR converges to; no
  packets are generated or filtered.
- :mod:`repro.telescope.campaigns` — scanning campaigns and their
  suppression mask (not used by the platform's signals).
"""

from repro.telescope.counter import unique_source_series
from repro.telescope.campaigns import (
    Campaign,
    CampaignSchedule,
    apply_campaigns,
    campaign_suppression_mask,
)

__all__ = [
    "unique_source_series",
    "Campaign",
    "CampaignSchedule",
    "apply_campaigns",
    "campaign_suppression_mask",
]
