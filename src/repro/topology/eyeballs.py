"""APNIC-style per-AS eyeball (user population) estimates.

APNIC estimates the user population behind each AS via an advertisement
measurement; the paper uses these to compute the fraction of a country's
eyeballs served by state-owned operators, complementing the address-space
metric because NAT makes addresses a poor proxy for users (§3.3).

Our emitter derives estimates from topology ground truth with multiplicative
log-normal measurement noise and a coverage floor: ASes serving very small
user shares fall below APNIC's measurement threshold and are absent, as in
the real dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.rng import substream
from repro.topology.generator import WorldTopology

__all__ = ["EyeballEstimate", "EyeballEstimates"]


@dataclass(frozen=True)
class EyeballEstimate:
    """Estimated users behind one AS in one country."""

    asn: int
    country_iso2: str
    users: float


class EyeballEstimates:
    """The full eyeball dataset: per-(ASN, country) user estimates."""

    def __init__(self, estimates: Tuple[EyeballEstimate, ...]):
        self._estimates = estimates

    @classmethod
    def from_topology(cls, topology: WorldTopology, seed: int,
                      noise_sigma: float = 0.2,
                      coverage_floor: float = 0.002) -> "EyeballEstimates":
        """Derive estimates from topology ground truth.

        ``noise_sigma`` is the log-normal measurement noise;
        ``coverage_floor`` is the minimum true user share for an AS to be
        measured at all.
        """
        rng = substream(seed, "eyeballs")
        estimates = []
        for network in topology:
            population = network.country.population_millions * 1e6
            for network_as in network.ases:
                share = network_as.eyeball_share
                if share < coverage_floor:
                    continue
                noise = float(rng.lognormal(mean=0.0, sigma=noise_sigma))
                estimates.append(EyeballEstimate(
                    asn=int(network_as.asn),
                    country_iso2=network.country.iso2,
                    users=share * population * noise,
                ))
        return cls(tuple(estimates))

    def __len__(self) -> int:
        return len(self._estimates)

    def __iter__(self) -> Iterator[EyeballEstimate]:
        return iter(self._estimates)
