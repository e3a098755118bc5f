"""Upper MAC of a multi-link device: shared buffer and link allocation.

A device (AP or STA) owns one MPDU pool shared by all of its link MACs.
Five allocation behaviors are supported:

- sl: degenerate single-link device; the one link drains the pool.
- greedy: every link contends whenever the pool is non-empty; the link
  that wins an access pulls the largest sendable prefix at that moment.
- uniform: the pool is pre-split across links in equal shares.
- congestion: shares proportional to each link's estimated free time
  (update period minus moving-average busy time).
- condition: shares proportional to free time times the data rate the
  link's rate selector would use next.

The pre-splitting policies re-run on every BlockAck or timeout
resolution: all MPDUs still waiting on any link are recalled and the full
pool is redistributed.  A link whose share lands on a busy medium simply
keeps the MPDUs parked until the next restart, which is what starves
transfers when one link never wins access.

stats.record puts a frame's outcome on the frame: its delay once the
BlockAck confirming its last fragment completes, or LOST when the buffer
has no room for it or a fragment exhausts its retries.  Link MACs call
into the device only through build_ampdu and on_resolution.
"""

from __future__ import annotations

import logging
from collections import deque
from itertools import repeat
from operator import attrgetter

from .mac import Ampdu, LinkMac, aggregate, retry_or_drop
from .stats import LOST, record
from .traffic import AppFrame, fragment

log = logging.getLogger(__name__)

SL = "sl"
GREEDY = "greedy"
UNIFORM = "uniform"
CONGESTION = "congestion"
CONDITION = "condition"
POLICIES = (SL, GREEDY, UNIFORM, CONGESTION, CONDITION)

DEFAULT_BUFFER_CAP = 2048
DEFAULT_UPDATE_PERIOD_US = 500_000
DEFAULT_MA_WINDOW = 10


def check_link_count(policy: str, n_links: int):
    """sl runs on exactly one link; every multi-link policy needs two or more."""
    if policy == SL and n_links != 1:
        raise ValueError("sl requires exactly 1 link")
    if policy != SL and n_links < 2:
        raise ValueError(f"{policy} requires at least 2 links")


class CongestionEstimate:
    """Moving average of per-period link busy time.  The free time moves
    only when a sample enters, so update computes it for every split."""

    def __init__(self, update_period_us: int = DEFAULT_UPDATE_PERIOD_US,
                 window: int = DEFAULT_MA_WINDOW):
        self.update_period_us = update_period_us
        self.samples = deque(maxlen=window)
        self._free_us = max(update_period_us - self.busy_ma_us, 0.0)

    def update(self, period_busy_us: int):
        if not 0 <= period_busy_us <= self.update_period_us:
            raise ValueError("busy time outside the update period")
        self.samples.append(period_busy_us)
        self._free_us = max(self.update_period_us - self.busy_ma_us, 0.0)

    @property
    def busy_ma_us(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def free_time_us(self) -> float:
        return self._free_us


def split_uniform(n: int, i: int) -> list[int]:
    """Sequential shares of ceil(n/i), last links absorbing the shortfall."""
    share = -(-n // i)
    counts = []
    left = n
    for _ in range(i):
        c = min(share, left)
        counts.append(c)
        left -= c
    return counts


def split_weighted(n: int, weights: list[float]) -> list[int]:
    """Largest-remainder apportionment of n items by weight.

    Exact sum is guaranteed; remainder ties break toward the lower index.
    All-zero weights degrade to the uniform split.
    """
    total = sum(weights)
    if total <= 0:
        return split_uniform(n, len(weights))
    quotas = [n * w / total for w in weights]
    counts = [int(q) for q in quotas]
    leftover = n - sum(counts)
    if leftover:
        # a stable sort of the indexes keeps ties toward the lower index
        remainders = [c - q for c, q in zip(counts, quotas)]
        for j in sorted(range(len(weights)), key=remainders.__getitem__)[:leftover]:
            counts[j] += 1
    return counts


def _uniform_shares(dev: "MldDevice", n: int) -> list[int]:
    return split_uniform(n, len(dev.macs))


def _congestion_shares(dev: "MldDevice", n: int) -> list[int]:
    return split_weighted(n, [est.free_time_us() for est in dev.estimators])


def _condition_shares(dev: "MldDevice", n: int) -> list[int]:
    dest = dev.pending[0].dst
    return split_weighted(n, [est.free_time_us() * mac.decided_rate(dest)
                              for est, mac in zip(dev.estimators, dev.macs)])


# Share rules of the pre-splitting policies: per-link MPDU counts for the
# n pending MPDUs.  sl and greedy have none; their links drain the pool.
SHARE_RULES = {
    UNIFORM: _uniform_shares,
    CONGESTION: _congestion_shares,
    CONDITION: _condition_shares,
}


class MldDevice:
    """One AP or STA: the shared buffer, its link MACs, and the policy."""

    def __init__(self, sim, device: int, policy: str,
                 buffer_cap: int = DEFAULT_BUFFER_CAP,
                 count_own_tx: bool = True,
                 update_period_us: int = DEFAULT_UPDATE_PERIOD_US,
                 ma_window: int = DEFAULT_MA_WINDOW):
        self.sim = sim
        self.device = device
        self.shares = SHARE_RULES.get(policy)
        self.buffer_cap = buffer_cap
        self.count_own_tx = count_own_tx
        self.update_period_us = update_period_us
        self.ma_window = ma_window
        self.macs: list[LinkMac] = []
        self.estimators: list[CongestionEstimate] = []
        self._busy_snapshots: list[int] = []
        self.pending: list = []
        self.mpdu_load = 0
        self._seq = 0
        self.restart_count = 0
        self.admission_drops = 0

    def add_mac(self, mac: LinkMac):
        self.macs.append(mac)
        self.estimators.append(CongestionEstimate(self.update_period_us, self.ma_window))
        self._busy_snapshots.append(0)

    # -- traffic entry ---------------------------------------------------

    def on_frame(self, frame: AppFrame):
        mpdus = fragment(frame)
        if self.mpdu_load + len(mpdus) > self.buffer_cap:
            self.admission_drops += 1
            log.debug("dev%d buffer full, dropping %s frame %d",
                      self.device, frame.stream.kind, frame.index)
            record(frame, LOST)
            return
        for m in mpdus:
            m.seq = self._seq
            self._seq += 1
        self.mpdu_load += len(mpdus)
        frame.mpdus_left = len(mpdus)
        self.pending.extend(mpdus)
        if self.shares:
            self._run_policy()
        for mac in self.macs:
            self._sync(mac)

    # -- policy ------------------------------------------------------------

    def _run_policy(self):
        counts = self.shares(self, len(self.pending))
        start = 0
        for mac, c in zip(self.macs, counts):
            if c:
                mac.allocated.extend(self.pending[start:start + c])
                start += c
        self.pending.clear()

    def _sync(self, mac: LinkMac):
        """The one contention rule: a link contends exactly while its
        queue (its share, or the shared pool) holds MPDUs."""
        if mac.allocated if self.shares else self.pending:
            mac.ensure_contending()
        else:
            mac.abort_contention()

    # -- transmission service (called by LinkMac) ---------------------------

    def build_ampdu(self, mac: LinkMac):
        source = mac.allocated if self.shares else self.pending
        if not source:
            return None
        ampdu = aggregate(source, mac.pick_mcs(source[0].dst), mac.bandwidth)
        del source[:len(ampdu.mpdus)]
        if not source:
            # a drained pool stands down the siblings still counting down
            # backoff; the caller leaves contention once this returns
            for mc in self.macs:
                if mc is not mac:
                    self._sync(mc)
        return ampdu

    def on_resolution(self, mac: LinkMac, ampdu: Ampdu, bitmap):
        now = self.sim.now
        requeue = []
        # no bitmap: the PPDU collided and timed out, every MPDU failed
        for m, ok in zip(ampdu.mpdus, bitmap or repeat(False)):
            frame = m.frame
            if ok:
                frame.mpdus_left -= 1
                # a frame with a dropped fragment never gets here: that
                # fragment is never delivered, so mpdus_left stays above zero
                if not frame.mpdus_left:
                    record(frame, now - frame.arrival_time)
            elif retry_or_drop(m):
                requeue.append(m)
            elif frame.delay_us is not LOST:  # siblings may have dropped already
                record(frame, LOST)
        # every MPDU not sent back to the pool has left the buffer
        self.mpdu_load -= len(ampdu.mpdus) - len(requeue)
        # recall every share and merge it back into the seq-ordered pool
        for mc in self.macs:
            if mc.allocated:
                requeue.extend(mc.allocated)
                mc.allocated = []
        if requeue:
            requeue.extend(self.pending)
            requeue.sort(key=attrgetter("seq"))
            self.pending = requeue
        if self.shares and self.pending:
            self.restart_count += 1
            self._run_policy()
        for mc in self.macs:
            self._sync(mc)

    # -- congestion sampling ---------------------------------------------------

    def on_tick(self):
        """Per update period: push each link's fresh busy time into its MA."""
        now = self.sim.now
        for j, mac in enumerate(self.macs):
            total = mac.sensed_busy_total(now, self.count_own_tx)
            self.estimators[j].update(total - self._busy_snapshots[j])
            self._busy_snapshots[j] = total
