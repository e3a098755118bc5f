"""Abstracted physical layer.

Deterministic log-distance propagation (free space to a 5 m breakpoint,
exponent 3.5 beyond, no fading), an 802.11 single-spatial-stream MCS
table with exact x2 rate scaling per bandwidth doubling, a linear-ramp
per-MPDU error model around each MCS SNR threshold, and a windowed
exploit/probe rate selector standing in for Minstrel.  Fixed-rate control
is the same selector with a one-entry MCS set: it never probes, never
draws randomness, and keeps its MCS even where the SNR cannot carry it.

The channel is intentionally simple: in-cell stations sit well above the
top MCS thresholds, so queueing and contention, not noise, dominate
delay.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

PREAMBLE_US = 44
TX_POWER_DBM = 20.0
NOISE_FIGURE_DB = 7.0
BREAKPOINT_M = 5.0
PATH_LOSS_EXPONENT = 3.5
SPEED_OF_LIGHT = 299_792_458.0

CARRIERS_GHZ = (5.2, 5.5, 6.1, 6.5)


@dataclass(frozen=True)
class LinkSpec:
    carrier_ghz: float
    bandwidth_mhz: int


@dataclass(frozen=True)
class McsEntry:
    index: int
    label: str
    rate_20mhz: float  # Mb/s at 20 MHz, 1 spatial stream, 0.8 us GI
    min_snr_db: float

    def data_rate(self, bandwidth_mhz: int) -> float:
        """Mb/s at the given bandwidth; exact x2 per doubling."""
        return self.rate_20mhz * (bandwidth_mhz / 20)


MCS_TABLE = (
    McsEntry(0, "BPSK 1/2", 8.6, 2.0),
    McsEntry(1, "QPSK 1/2", 17.2, 5.0),
    McsEntry(2, "QPSK 3/4", 25.8, 9.0),
    McsEntry(3, "16-QAM 1/2", 34.4, 11.0),
    McsEntry(4, "16-QAM 3/4", 51.6, 15.0),
    McsEntry(5, "64-QAM 2/3", 68.8, 18.0),
    McsEntry(6, "64-QAM 3/4", 77.4, 20.0),
    McsEntry(7, "64-QAM 5/6", 86.0, 25.0),
    McsEntry(8, "256-QAM 3/4", 103.2, 29.0),
    McsEntry(9, "256-QAM 5/6", 114.7, 31.0),
    McsEntry(10, "1024-QAM 3/4", 129.0, 34.0),
    McsEntry(11, "1024-QAM 5/6", 143.4, 36.0),
)


def path_loss(distance_m: float, carrier_ghz: float) -> float:
    """Log-distance loss in dB: FSPL to 5 m, exponent 3.5 beyond."""
    d = min(distance_m, BREAKPOINT_M)
    fspl = 20 * math.log10(4 * math.pi * d * carrier_ghz * 1e9 / SPEED_OF_LIGHT)
    if distance_m <= BREAKPOINT_M:
        return fspl
    return fspl + 10 * PATH_LOSS_EXPONENT * math.log10(distance_m / BREAKPOINT_M)


def noise_floor_dbm(bandwidth_mhz: int) -> float:
    return -174.0 + 10 * math.log10(bandwidth_mhz * 1e6) + NOISE_FIGURE_DB


def snr(link: LinkSpec, distance_m: float) -> float:
    """Received SNR in dB at 20 dBm transmit power."""
    return TX_POWER_DBM - path_loss(distance_m, link.carrier_ghz) - noise_floor_dbm(link.bandwidth_mhz)


def tx_duration(payload_bytes: int, mcs: McsEntry, bandwidth_mhz: int) -> int:
    """PPDU airtime in us: 44 us preamble plus payload at the MCS rate.

    A rate of r Mb/s carries exactly r bits per microsecond.
    """
    return PREAMBLE_US + math.ceil(payload_bytes * 8 / mcs.data_rate(bandwidth_mhz))


def error_probability(mcs: McsEntry, snr_db: float) -> float:
    """Per-MPDU error: 0 above min_snr+2, 1 below min_snr-2, linear between."""
    margin = snr_db - mcs.min_snr_db
    if margin >= 2:
        return 0.0
    if margin <= -2:
        return 1.0
    return (2 - margin) / 4


def max_feasible_index(snr_db: float) -> int:
    """Highest index whose error probability is below 1 at this SNR."""
    best = 0
    for e in MCS_TABLE:
        if error_probability(e, snr_db) < 1.0:
            best = e.index
    return best


class RateSelector:
    """Windowed exploit/probe MCS selection for one transmitter-link pair.

    Keeps the last WINDOW attempt outcomes (MPDU delivery fraction per
    PPDU) for each MCS.  Exploit steps pick the feasible index with the
    highest data_rate x mean(outcomes); indexes never attempted carry no
    estimate, so coverage comes from the 10% probe steps, which draw
    uniformly among the other feasible indexes.  A fresh selector exploits
    INITIAL_INDEX until it has any history.

    With fixed_mcs the one feasible index is fixed_mcs, whatever snr_db
    says, so select never draws.  snr_db also drives the MPDU error model.
    """

    WINDOW = 25
    PROBE_PROB = 0.1
    INITIAL_INDEX = 4

    def __init__(self, bandwidth_mhz: int, snr_db: float, fixed_mcs: int | None = None):
        self.snr_db = snr_db
        if fixed_mcs is None:
            limit = max_feasible_index(snr_db)
            self.feasible = range(limit + 1)
            self.initial_index = min(self.INITIAL_INDEX, limit)
        else:
            self.feasible = range(fixed_mcs, fixed_mcs + 1)
            self.initial_index = fixed_mcs
        self.windows = [deque(maxlen=self.WINDOW) for _ in MCS_TABLE]
        self._rates = [e.data_rate(bandwidth_mhz) for e in MCS_TABLE]
        self._sums = [0.0] * len(MCS_TABLE)  # running sum of each window
        self._best = self.initial_index
        self._best_est = None  # estimate of _best; None until a record

    def record(self, index: int, delivered_fraction: float):
        """Add one outcome of a feasible index.  Only its estimate moves, so
        the best changes to index or, if the best's own estimate fell, by a rescan."""
        w = self.windows[index]
        if len(w) == w.maxlen:
            self._sums[index] -= w[0]
        w.append(delivered_fraction)
        self._sums[index] += delivered_fraction
        est = self.estimate(index)
        best_est = self._best_est
        if index == self._best and best_est is not None and est < best_est:
            self._rescan()
        elif best_est is None or est > best_est or (est == best_est and index <= self._best):
            self._best, self._best_est = index, est

    def _rescan(self):
        best, best_est = self.initial_index, None
        for i in self.feasible:
            if self.windows[i]:
                est = self.estimate(i)
                if best_est is None or est > best_est:
                    best, best_est = i, est
        self._best, self._best_est = best, best_est

    def estimate(self, index: int) -> float:
        return self._rates[index] * (self._sums[index] / len(self.windows[index]))

    def decided_rate(self) -> float:
        """Data rate (Mb/s) of the MCS the next exploit step would use: the
        feasible index with the highest estimate, ties to the lower index, or
        initial_index while no feasible index has history; consumes no randomness."""
        return self._rates[self._best]

    def select(self, rng) -> McsEntry:
        best = self._best
        if len(self.feasible) > 1 and rng.random() < self.PROBE_PROB:
            alt = rng.randrange(len(self.feasible) - 1)
            if alt >= best:
                alt += 1
            return MCS_TABLE[alt]
        return MCS_TABLE[best]
