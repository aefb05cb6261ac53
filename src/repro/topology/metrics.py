"""State-participation metrics computed from the emitted datasets.

This reproduces the paper's §3.3 computation: combine the CAIDA-style
prefix-to-AS snapshot with the MaxMind-style geolocation database to
attribute /24-equivalents to (ASN, country) pairs, then use the state-owned
AS list to compute each country's state-owned address-space fraction, and
the APNIC-style eyeball estimates for the state-owned eyeball fraction.

Crucially the computation runs over the *emitted* datasets (with their
noise, misses and geolocation errors), not over topology ground truth — the
same epistemic position the paper is in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.topology.eyeballs import EyeballEstimates
from repro.topology.geolocation import GeoDatabase
from repro.topology.prefix2as import Prefix2ASSnapshot
from repro.topology.state_owned import StateOwnedASList

__all__ = ["StateShare", "compute_state_shares"]


@dataclass(frozen=True)
class StateShare:
    """State participation in one country's access market."""

    country_iso2: str
    address_space_fraction: float
    eyeball_fraction: float

    @property
    def state_controlled(self) -> bool:
        """The paper's categorical split: state-owned operators originate
        more than 50% of the domestic address space (§5.1.1)."""
        return self.address_space_fraction > 0.5


def compute_state_shares(
        prefix2as: Prefix2ASSnapshot,
        geo: GeoDatabase,
        state_owned: StateOwnedASList,
        eyeballs: EyeballEstimates) -> Dict[str, StateShare]:
    """Compute per-country state shares from the four datasets.

    Returns a mapping from ISO code to :class:`StateShare` for every country
    that has any attributed address space or eyeballs.
    """
    total24: Dict[str, float] = {}
    state24: Dict[str, float] = {}
    for prefix, asns in prefix2as:
        iso2 = geo.country_of_prefix(prefix)
        if iso2 is None:
            continue
        blocks = prefix.num_slash24s
        total24[iso2] = total24.get(iso2, 0.0) + blocks
        if asns[0] in state_owned:
            state24[iso2] = state24.get(iso2, 0.0) + blocks

    total_users: Dict[str, float] = {}
    state_users: Dict[str, float] = {}
    for estimate in eyeballs:
        iso2 = estimate.country_iso2
        total_users[iso2] = total_users.get(iso2, 0.0) + estimate.users
        if estimate.asn in state_owned:
            state_users[iso2] = (
                state_users.get(iso2, 0.0) + estimate.users)

    shares: Dict[str, StateShare] = {}
    for iso2 in set(total24) | set(total_users):
        addr_total = total24.get(iso2, 0.0)
        user_total = total_users.get(iso2, 0.0)
        shares[iso2] = StateShare(
            country_iso2=iso2,
            address_space_fraction=(
                state24.get(iso2, 0.0) / addr_total if addr_total else 0.0),
            eyeball_fraction=(
                state_users.get(iso2, 0.0) / user_total
                if user_total else 0.0),
        )
    return shares

