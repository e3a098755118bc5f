"""Upper MAC of a multi-link device: shared buffer and link allocation.

A device (AP or STA) owns one MPDU pool and one queue per link MAC; a
link contends exactly while its queue holds MPDUs.  The five policies
differ only in how the pool maps onto the queues:

- sl: degenerate single-link device; its one queue is the pool.
- greedy: every link's queue is the pool; the link that wins an access
  pulls the largest sendable prefix at that moment.
- uniform: each link has its own queue; the pool is split into them in
  equal shares, which empties it.
- congestion: shares proportional to each link's estimated free time
  (update period minus moving-average busy time).
- condition: shares proportional to free time times the data rate the
  link's rate selector would use next.

The pre-splitting policies re-run on every BlockAck or timeout
resolution: all MPDUs still waiting in any link's queue are recalled and
the full pool is split again.  A link whose share lands on a busy medium
simply keeps the MPDUs parked until the next restart, which is what
starves transfers when one link never wins access.  A split's counts
depend only on the pool size and the links' weights, so a device
apportions each pool size once and recomputes the shares only when the
weights move (free time on an estimator tick, a rate on a record).

stats.record puts a frame's outcome on the frame: its delay once the
BlockAck confirming its last fragment completes, or LOST when the buffer
has no room for it or a fragment exhausts its retries.  Link MACs call
into the device only through build_ampdu and on_resolution.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import Sequence
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


def split_weighted(n: int, weights: Sequence[float]) -> list[int]:
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


def _uniform_weights(dev: "MldDevice") -> None:
    return None  # equal shares, whatever the links' state


def _congestion_weights(dev: "MldDevice") -> tuple:
    return tuple([est.free_time_us() for est in dev.estimators])


def _condition_weights(dev: "MldDevice") -> tuple:
    dest = dev.pool[0].dst
    return tuple([est.free_time_us() * mac.decided_rate(dest)
                  for est, mac in zip(dev.estimators, dev.macs)])


# Share rules of the pre-splitting policies: the per-link weights the
# pooled MPDUs are split by (None: split_uniform).  sl and greedy have
# none; their queues are the pool.
SHARE_RULES = {
    UNIFORM: _uniform_weights,
    CONGESTION: _congestion_weights,
    CONDITION: _condition_weights,
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
        self.pool: list = []  # seq-ordered; only a staging list under a split
        self.queues: dict[LinkMac, list] = {}  # each link's queue, in mac order
        self.mpdu_load = 0
        self._seq = 0
        # the split memo: per-link counts by pool size, for one weight vector
        self._weights = None
        self._counts: dict[int, tuple] = {}
        self.restart_count = 0
        self.admission_drops = 0

    def add_mac(self, mac: LinkMac):
        self.macs.append(mac)
        self.queues[mac] = [] if self.shares else self.pool
        self.estimators.append(CongestionEstimate(self.update_period_us, self.ma_window))
        self._busy_snapshots.append(0)

    # -- traffic entry ---------------------------------------------------

    def on_frame(self, frame: AppFrame):
        mpdus = fragment(frame)
        n = len(mpdus)
        if self.mpdu_load + n > self.buffer_cap:
            self.admission_drops += 1
            log.debug("dev%d buffer full, dropping %s frame %d",
                      self.device, frame.stream.kind, frame.index)
            record(frame, LOST)
            return
        for seq, m in enumerate(mpdus, self._seq):
            m.seq = seq
        self._seq += n
        self.mpdu_load += n
        frame.mpdus_left = n
        self.pool.extend(mpdus)
        if self.shares:
            self._split()
        self._sync()

    # -- policy ------------------------------------------------------------

    def _split(self):
        """Empty the pool into the link queues by the policy's shares.  The
        counts depend only on (weights, pool size), so each size is
        apportioned once until the weights move."""
        weights = self.shares(self)
        if weights != self._weights:
            self._weights, self._counts = weights, {}
        n = len(self.pool)
        counts = self._counts.get(n)
        if counts is None:
            counts = self._counts[n] = tuple(
                split_uniform(n, len(self.macs)) if weights is None
                else split_weighted(n, weights))
        start = 0
        for queue, c in zip(self.queues.values(), counts):
            if c:
                queue.extend(self.pool[start:start + c])
                start += c
        self.pool.clear()

    def _sync(self):
        """The one contention rule: a link contends while its queue holds
        MPDUs and it is not transmitting.  A MAC is called only to change
        its state."""
        for mac, queue in self.queues.items():
            if mac in mac.medium.contenders:
                if not queue:
                    mac.abort_contention()
            elif queue and mac.in_flight is None:
                mac.enter_contention()

    # -- transmission service (called by LinkMac) ---------------------------

    def build_ampdu(self, mac: LinkMac) -> Ampdu:
        queue = self.queues[mac]
        ampdu = aggregate(queue, mac.pick_mcs(queue[0].dst), mac.bandwidth)
        del queue[:len(ampdu.mpdus)]
        if not queue:  # a drained pool stands down the links sharing it
            self._sync()
        return ampdu

    def on_resolution(self, ampdu: Ampdu, bitmap):
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
        if self.shares:
            # recall every link's queue; the staging pool was empty
            for queue in self.queues.values():
                if queue:
                    requeue += queue
                    queue.clear()
        if requeue:
            # merged in place: under sl and greedy the pool is every queue
            self.pool += requeue
            self.pool.sort(key=attrgetter("seq"))
            if self.shares:
                self.restart_count += 1
                self._split()
        self._sync()

    # -- congestion sampling ---------------------------------------------------

    def on_tick(self):
        """Per update period: push each link's fresh busy time into its MA."""
        now = self.sim.now
        for j, mac in enumerate(self.macs):
            total = mac.sensed_busy_total(now, self.count_own_tx)
            self.estimators[j].update(total - self._busy_snapshots[j])
            self._busy_snapshots[j] = total
