"""Reference implementations the signal and detection kernels are tested
against.

Production detects alerts through one columnar path
(:mod:`repro.stream.detect`), simulates Active Probing rounds through
one table-driven path (:mod:`repro.probing.scheduler`) and counts BGP
visibility through a kernel that skips cells its draws cannot change
(:mod:`repro.bgp.view`).  The functions here are the plain forms those
paths must match **bit for bit**: one bin, one alert, one probing round
at a time, and every (bin, prefix) cell of the BGP count.  They share no
logic with the code under test beyond the data types and the BGP
visibility probability.  The probing reference updates each block's
Trinocular belief round by round (:func:`update`, :func:`batch_update`,
:func:`classify`), where production looks beliefs up by rounds since
the last answer.  :class:`RollingMedian`, the sorted-window median
tracker they use, is itself the reference the columnar median kernels
of :mod:`repro.stats.rolling` are tested against, and
:func:`campaign_suppression_mask` the one telescope campaign
suppression is.  :func:`ground_truth_state_shares` reads off the world
the state shares :func:`repro.topology.metrics.compute_state_shares`
estimates from noisy datasets.

The telescope's packet path is kept here too: :class:`IBRGenerator`
emits individual packets, :func:`default_filters` drops the spoofed
ones, and :func:`unique_sources_from_packets` counts distinct sources
per bin.  It is the physical model that
:func:`repro.telescope.counter.unique_source_series` draws counts from
in closed form; the two agree in mean, not bit for bit, and the scalar
:func:`diurnal_factor` is the one the vectorized
:func:`~repro.telescope.counter.diurnal_factors` matches exactly.

Each kernel reference is shaped so it can stand in for production at
the name production looks it up by, which is how the pipeline tests run
a whole curation through the references:

- :class:`ScalarAlertDetector` for
  :class:`~repro.stream.detect.StreamingAlertDetector`;
- :func:`stream_episodes` for :func:`repro.stream.detect.stream_episodes`;
- :func:`up_count_series` for
  :meth:`repro.probing.scheduler.ActiveProbingRun.up_count_series`;
- :func:`visible_slash24_series` for
  :func:`repro.bgp.view.visible_slash24_series`;
- :func:`region_episodes`, the full descent, for
  :meth:`repro.ioda.curation.CurationPipeline._region_episodes`.
"""

from __future__ import annotations

import bisect
import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple

import numpy as np

from repro.bgp.view import VISIBILITY_QUORUM, _p_visible
from repro.errors import SignalError
from repro.net.ipv4 import IPv4Address, Prefix, parse_prefix
from repro.probing.scheduler import ActiveProbingRun
from repro.probing.trinocular import TrinocularConfig
from repro.signals.alerts import Alert, AlertEpisode, DetectorConfig
from repro.signals.entities import Entity
from repro.signals.kinds import SignalKind
from repro.signals.series import TimeSeries
from repro.timeutils.timestamps import DAY, FIVE_MINUTES, HOUR, TimeRange, \
    bin_floor
from repro.topology.generator import WorldTopology
from repro.topology.metrics import StateShare


class RollingMedian:
    """Median over a sliding window of the last ``window`` values.

    Values are pushed one bin at a time; :attr:`median` reflects only the
    values currently inside the window.  The median is the interpolating
    median: the mean of the central pair, which for odd counts is the
    middle value averaged with itself — ``(a + a) / 2``, so values above
    ~8.99e307 overflow to inf exactly as in
    :func:`~repro.stats.rolling.trailing_median_at`.
    """

    def __init__(self, window: int):
        if window <= 0:
            raise SignalError(f"window must be positive: {window}")
        self._window = window
        self._queue: deque[float] = deque()
        self._sorted: List[float] = []

    @property
    def window(self) -> int:
        """Capacity of the sliding window, in values."""
        return self._window

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        """Whether the window has reached capacity."""
        return len(self._queue) == self._window

    def push(self, value: float) -> None:
        """Add a value, evicting the oldest if the window is full."""
        if len(self._queue) == self._window:
            oldest = self._queue.popleft()
            index = bisect.bisect_left(self._sorted, oldest)
            del self._sorted[index]
        self._queue.append(value)
        bisect.insort(self._sorted, value)

    @property
    def median(self) -> Optional[float]:
        """Current median, or ``None`` if the window is empty."""
        n = len(self._sorted)
        if n == 0:
            return None
        mid = n // 2
        low = self._sorted[mid] if n % 2 else self._sorted[mid - 1]
        return (low + self._sorted[mid]) / 2.0


def rolling_median(values: Iterable[float],
                   window: int) -> List[Optional[float]]:
    """For each position, the median of the *preceding* ``window`` values.

    The value at index ``i`` summarizes values ``i-window .. i-1``; it is
    ``None`` while no history exists (index 0).  This trailing convention
    matches the alert engine, which must not let the current (possibly
    anomalous) bin influence its own baseline.
    """
    tracker = RollingMedian(window)
    medians: List[Optional[float]] = []
    for value in values:
        medians.append(tracker.median)
        tracker.push(value)
    return medians


def campaign_suppression_mask(series: TimeSeries, window_bins: int = 288,
                              spike_factor: float = 1.6) -> np.ndarray:
    """The per-bin reference campaign suppression mask.

    A bin is flagged when it exceeds ``spike_factor`` times the median
    of the last ``window_bins`` unflagged bins; flagged bins stay out
    of that baseline.
    """
    tracker = RollingMedian(window_bins)
    mask = np.zeros(len(series), dtype=bool)
    for index, (_, value) in enumerate(series):
        baseline = tracker.median
        flagged = (baseline is not None and baseline > 0
                   and value > spike_factor * baseline)
        mask[index] = flagged
        if not flagged:
            tracker.push(value)
    return mask


class ScalarAlertDetector:
    """The per-bin reference alert detector.

    Each bin is compared against the median of the ``window`` bins
    strictly before it, once at least ``min_history`` of them have been
    seen; the bin alerts when its value is below ``threshold`` times that
    median.  Chunking cannot matter: the loop carries everything it
    needs from one bin to the next.
    """

    def __init__(self, config: DetectorConfig, width: int):
        if width <= 0:
            raise SignalError(f"bin width must be positive: {width}")
        window = config.history_seconds // width
        if window <= 0:
            raise SignalError(
                f"history window {config.history_seconds}s shorter "
                f"than one bin ({width}s)")
        self._threshold = config.threshold
        self._min_history = max(
            1, int(window * config.min_history_fraction))
        self._tracker = RollingMedian(window)

    def feed(self, bin_starts: np.ndarray,
             values: np.ndarray) -> List[Alert]:
        alerts: List[Alert] = []
        for ts, value in zip(bin_starts, values):
            baseline = self._tracker.median
            if (baseline is not None
                    and len(self._tracker) >= self._min_history
                    and value < self._threshold * baseline):
                alerts.append(Alert(time=int(ts), value=float(value),
                                    baseline=baseline))
            self._tracker.push(float(value))
        return alerts


def detect_alerts(series: TimeSeries,
                  config: DetectorConfig) -> List[Alert]:
    """Every alerting bin of a whole series."""
    return ScalarAlertDetector(config, series.width).feed(*series.arrays())


def group_alerts(alerts: Sequence[Alert], bin_width: int,
                 max_gap_bins: int = 1) -> List[AlertEpisode]:
    """The per-alert reference episode grouper.

    An alert within ``(max_gap_bins + 1) * bin_width`` of the previous
    one extends the current run; a larger gap starts a new run.
    """
    if bin_width <= 0:
        raise SignalError(f"bin width must be positive: {bin_width}")
    if max_gap_bins < 0:
        raise SignalError(f"max gap must be >= 0 bins: {max_gap_bins}")
    runs: List[List[Alert]] = []
    for alert in alerts:
        if runs and alert.time <= runs[-1][-1].time \
                + (max_gap_bins + 1) * bin_width:
            runs[-1].append(alert)
        else:
            runs.append([alert])
    return [AlertEpisode(span=TimeRange(run[0].time,
                                        run[-1].time + bin_width),
                         min_value=min(alert.value for alert in run),
                         baseline=run[0].baseline,
                         n_bins=len(run))
            for run in runs]


def stream_episodes(series: TimeSeries, config: DetectorConfig,
                    max_gap_bins: int = 1) -> List[AlertEpisode]:
    """Detect and group one whole series through the references."""
    return group_alerts(detect_alerts(series, config), series.width,
                        max_gap_bins=max_gap_bins)


class BlockState(enum.Enum):
    """IODA's published block states."""

    UP = "up"
    DOWN = "down"
    UNKNOWN = "unknown"


def initial_belief(config: TrinocularConfig) -> float:
    """Belief assigned before any evidence."""
    return config.prior_up


def update(config: TrinocularConfig, belief: float, answered: bool,
           unanswered_probes: int, response_rate: float) -> float:
    """One round's Bayes update for a single block."""
    if answered:
        return 1.0
    miss_likelihood = (1.0 - response_rate) ** unanswered_probes
    numerator = belief * miss_likelihood
    posterior = numerator / (numerator + (1.0 - belief))
    return _drift(config, posterior)


#: Belief below which a block is published ``DOWN``.  The signal counts
#: only ``UP`` blocks, so no product path reads this threshold.
DOWN_THRESHOLD = 0.1


def classify(config: TrinocularConfig, belief: float) -> BlockState:
    """Map a belief to the published three-way state."""
    if belief > config.up_threshold:
        return BlockState.UP
    if belief < DOWN_THRESHOLD:
        return BlockState.DOWN
    return BlockState.UNKNOWN


def _drift(config: TrinocularConfig, belief: float) -> float:
    return belief + config.belief_drift * (config.prior_up - belief)


def batch_update(config: TrinocularConfig, beliefs: np.ndarray,
                 answered: np.ndarray,
                 response_rates: np.ndarray) -> np.ndarray:
    """:func:`update` over blocks.

    ``answered`` is boolean per block; unanswered blocks are treated as
    having exhausted all ``probes_per_round`` probes.
    """
    miss_likelihood = (1.0 - response_rates) ** config.probes_per_round
    numerator = beliefs * miss_likelihood
    posterior = numerator / (numerator + (1.0 - beliefs))
    return np.where(answered, 1.0, _drift(config, posterior))


def answer_probability(config: TrinocularConfig, response_rates: np.ndarray,
                       up: np.ndarray) -> np.ndarray:
    """P(at least one of the round's probes answered) per block."""
    p_answer = 1.0 - (1.0 - response_rates) ** config.probes_per_round
    return np.where(up, p_answer, 0.0)


def up_count_series(run: ActiveProbingRun, window: TimeRange,
                    up_fraction: np.ndarray,
                    rng: np.random.Generator,
                    keep: Optional[int] = None) -> TimeSeries:
    """The per-round reference Active Probing simulation.

    Each round draws one uniform per probed block (the sample's first
    ``keep``, in address order), updates every block's belief, and
    counts the blocks classified UP.  Written as a method body (``run``
    is the instance) so it can replace
    :meth:`ActiveProbingRun.up_count_series` on the class.
    """
    width = run._round_width
    start = bin_floor(window.start, width)
    n_rounds = -(-(window.end - start) // width)
    up = np.asarray(up_fraction, dtype=np.float64)
    if up.shape != (n_rounds,):
        raise SignalError(
            f"up_fraction has shape {up.shape}, expected ({n_rounds},)")
    config = run._inference._config
    rates = run._rates
    if keep is not None:
        rates = rates[run._order < keep]
    n = len(rates)
    block_quantile = (np.arange(n) + 1.0) / n
    beliefs = np.full(n, initial_belief(config))
    values = np.empty(n_rounds, dtype=np.float64)
    for round_index in range(n_rounds):
        block_up = block_quantile <= up[round_index] + 1e-12
        p_answer = answer_probability(config, rates, block_up)
        answered = rng.random(n) < p_answer
        beliefs = batch_update(config, beliefs, answered, rates)
        values[round_index] = int((beliefs > config.up_threshold).sum())
    return TimeSeries(start, width, values)


def visible_slash24_series(
        window: TimeRange,
        prefix_slash24s: Sequence[int],
        up_fraction: np.ndarray,
        rng: np.random.Generator,
        n_full_feed_peers: int = 24,
        miss_rate: float = 0.02,
        bin_width: int = FIVE_MINUTES) -> TimeSeries:
    """The dense reference visible-/24 count.

    Builds every (bin, prefix) cell's clipped contribution — prefix
    ``i`` keeps ``clip(budget - cumprev[i], 0, sizes[i])`` of the bin's
    reachable /24 budget — draws one uniform per cell, and sums the
    contributions of the cells whose draw makes the prefix visible.
    """
    sizes = np.asarray(prefix_slash24s, dtype=np.int64)
    if sizes.ndim != 1 or len(sizes) == 0:
        raise SignalError("prefix_slash24s must be a non-empty 1-D sequence")
    start = bin_floor(window.start, bin_width)
    n_bins = -(-(window.end - start) // bin_width)
    up = np.asarray(up_fraction, dtype=np.float64)
    if up.shape != (n_bins,):
        raise SignalError(
            f"up_fraction has shape {up.shape}, expected ({n_bins},)")
    total24 = int(sizes.sum())
    cumprev = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    budget = np.round(up * total24)
    contribution = np.clip(
        budget[:, None] - cumprev[None, :], 0, sizes[None, :])
    quorum = int(np.ceil(n_full_feed_peers * VISIBILITY_QUORUM))
    p_visible = _p_visible(quorum, n_full_feed_peers, miss_rate)
    visible = rng.random((n_bins, len(sizes))) < p_visible
    values = (contribution * visible).sum(axis=1)
    return TimeSeries(start, bin_width, values.astype(np.float64))


def region_episodes(pipeline, entity: Entity,
                    window: TimeRange) -> Dict[SignalKind, List[AlertEpisode]]:
    """The full-descent reference region pull: every signal kind, always.

    Production stops pulling a region's signals once two qualifying
    kinds are out of reach; this pulls all three whatever they show, so
    a curation run through it must record the same regions.  Written as
    a method body (``pipeline`` is the instance) so it can replace
    :meth:`CurationPipeline._region_episodes` on the class.
    """
    return pipeline._dashboard.episodes_by_signal(entity, window)


def ground_truth_state_shares(
        topology: WorldTopology) -> Dict[str, StateShare]:
    """The ground-truth state shares
    :func:`repro.topology.metrics.compute_state_shares` estimates from
    the four noisy operator datasets."""
    shares = {}
    for network in topology:
        users = sum(a.eyeball_share for a in network.ases)
        state_users = sum(a.eyeball_share for a in network.ases
                          if a.state_owned)
        shares[network.country.iso2] = StateShare(
            country_iso2=network.country.iso2,
            address_space_fraction=network.state_owned_slash24_fraction(),
            eyeball_fraction=state_users / users if users else 0.0)
    return shares


# -- the telescope packet path -------------------------------------------------


class PacketKind(enum.Enum):
    """Coarse class of unsolicited traffic."""

    SCAN = "scan"
    BACKSCATTER = "backscatter"
    MISCONFIGURATION = "misconfiguration"
    SPOOFED = "spoofed"


@dataclass(frozen=True, slots=True)
class TelescopePacket:
    """One packet as captured by the telescope."""

    time: int
    source: IPv4Address
    ttl: int
    kind: PacketKind

    @property
    def likely_spoofed(self) -> bool:
        """Ground-truth spoofing flag (filters must *infer* this)."""
        return self.kind is PacketKind.SPOOFED


def diurnal_factor(ts: int, utc_offset_seconds: int,
                   amplitude: float = 0.35) -> float:
    """Relative IBR intensity at one timestamp's local time of day."""
    local_seconds = (ts + utc_offset_seconds) % DAY
    phase = 2.0 * np.pi * (local_seconds - 15 * HOUR) / DAY
    return 1.0 + amplitude * float(np.cos(phase))


class IBRGenerator:
    """Packet-level IBR from a set of source prefixes.

    Per bin, ``Poisson(intensity * diurnal * up)`` genuine packets come
    from the reachable (address-ordered) share of the prefixes, and
    ``Poisson(intensity * spoofed_fraction)`` spoofed packets, with
    pathological TTLs, from anywhere — a spoofer elsewhere can use any
    source address, which is why the filters matter.
    """

    def __init__(self, prefixes: Sequence[Prefix], intensity_per_bin: float,
                 utc_offset_seconds: int, rng: np.random.Generator,
                 spoofed_fraction: float = 0.08):
        self._prefixes = list(prefixes)
        self._intensity = intensity_per_bin
        self._offset = utc_offset_seconds
        self._rng = rng
        self._spoofed_fraction = spoofed_fraction
        self._total24 = sum(p.num_slash24s for p in self._prefixes)

    def packets(self, window: TimeRange, up_fraction: np.ndarray,
                bin_width: int = FIVE_MINUTES) -> Iterator[TelescopePacket]:
        """Yield the packets of each bin of ``window``."""
        n_bins = -(-(window.end - window.start) // bin_width)
        up = np.clip(np.asarray(up_fraction, dtype=np.float64), 0.0, 1.0)
        for index in range(n_bins):
            bin_start = window.start + index * bin_width
            lam = (self._intensity * diurnal_factor(bin_start, self._offset)
                   * up[index])
            n_genuine = int(self._rng.poisson(lam))
            n_spoofed = int(self._rng.poisson(
                self._intensity * self._spoofed_fraction))
            kinds = [PacketKind.SCAN, PacketKind.BACKSCATTER,
                     PacketKind.MISCONFIGURATION]
            for _ in range(n_genuine):
                source = self._random_source(up[index])
                if source is None:
                    continue
                yield TelescopePacket(
                    time=bin_start + int(self._rng.integers(0, bin_width)),
                    source=source,
                    ttl=int(self._rng.integers(32, 120)),
                    kind=kinds[int(self._rng.integers(0, len(kinds)))])
            for _ in range(n_spoofed):
                yield TelescopePacket(
                    time=bin_start + int(self._rng.integers(0, bin_width)),
                    source=IPv4Address(int(self._rng.integers(0, 2 ** 32))),
                    ttl=int(self._rng.choice([255, 254, 1, 2])),
                    kind=PacketKind.SPOOFED)

    def _random_source(self, up_fraction: float) -> Optional[IPv4Address]:
        """An address from the reachable share of the prefixes, or
        ``None`` if nothing is up."""
        reachable24 = int(self._total24 * up_fraction)
        if reachable24 == 0:
            return None
        pick = int(self._rng.integers(0, reachable24))
        for prefix in self._prefixes:
            if pick < prefix.num_slash24s:
                base = prefix.network + pick * 256
                return IPv4Address(base + int(self._rng.integers(1, 255)))
            pick -= prefix.num_slash24s
        return None


#: Special-use ranges that can never be genuine eyeball sources.
BOGON_PREFIXES: Tuple[Prefix, ...] = tuple(parse_prefix(text) for text in (
    "0.0.0.0/8", "10.0.0.0/8", "100.64.0.0/10", "127.0.0.0/8",
    "169.254.0.0/16", "172.16.0.0/12", "192.0.2.0/24", "192.168.0.0/16",
    "198.18.0.0/15", "224.0.0.0/4", "240.0.0.0/4",
))


def ttl_plausible(packet: TelescopePacket) -> bool:
    """Reject arriving TTLs of 255/254 (untouched) or 0-2 (expired en
    route to a passive telescope): both indicate crafted packets."""
    return 3 <= packet.ttl <= 250


def not_bogon(packet: TelescopePacket) -> bool:
    """Reject packets sourced from special-use address space."""
    return not any(prefix.contains(packet.source)
                   for prefix in BOGON_PREFIXES)


@dataclass(frozen=True)
class FilterPipeline:
    """An ordered conjunction of anti-spoofing packet predicates."""

    predicates: Tuple[Callable[[TelescopePacket], bool], ...]

    def partition(self, packets: Iterable[TelescopePacket]
                  ) -> Tuple[List[TelescopePacket], List[TelescopePacket]]:
        """Split packets into (accepted, rejected) lists."""
        accepted: List[TelescopePacket] = []
        rejected: List[TelescopePacket] = []
        for packet in packets:
            passes = all(predicate(packet) for predicate in self.predicates)
            (accepted if passes else rejected).append(packet)
        return accepted, rejected


def default_filters() -> FilterPipeline:
    """The IODA-style anti-spoofing pipeline."""
    return FilterPipeline(predicates=(ttl_plausible, not_bogon))


def unique_sources_from_packets(
        packets: Iterable[TelescopePacket], window: TimeRange,
        bin_width: int = FIVE_MINUTES) -> TimeSeries:
    """Count distinct source IPs per bin over ``window``."""
    start = bin_floor(window.start, bin_width)
    n_bins = -(-(window.end - start) // bin_width)
    sources = [set() for _ in range(n_bins)]
    for packet in packets:
        if window.start <= packet.time < window.end:
            sources[(packet.time - start) // bin_width].add(
                packet.source.value)
    values = np.array([len(s) for s in sources], dtype=np.float64)
    return TimeSeries(start, bin_width, values)
