"""Per-link lower MAC and the shared medium it contends on.

One `LinkMac` instance exists per device per radio link; all MACs on a
link share one `Medium`, which finds a PPDU's receiver among them by
device id.  Each MAC keeps one `phy.RateSelector` per peer (add_peer),
holding the SNR towards it; under fixed-rate control its MCS set has one
entry.  A MAC calls its upper MAC only through build_ampdu and
on_resolution.  Contention is
DCF-style CSMA/CA with a single access category (CWmin 15, CWmax 1023,
AIFS = DIFS): DIFS sensing, slotted random backoff frozen while the
medium is busy, binary exponential backoff on acknowledgment timeout.
Data goes out as AMPDUs bounded by both a 64-MPDU count limit and a
5.484 ms airtime limit; delivery is confirmed by a fixed-duration
BlockAck that the receiver returns one SIFS after a non-collided PPDU.

Collisions are capture-free: any overlap corrupts every MPDU of every
overlapped PPDU, and no BlockAck is returned.  Two transmissions can only
overlap by starting in the same microsecond, because a grant scheduled for
a later instant is frozen the moment the medium turns busy.

The medium keeps a coalesced busy timeline (data airtime plus BlockAck
airtime, not interframe gaps) so congestion estimators can read the busy
time of any period in O(1); per-MAC counters track each device's own
airtime for the estimator mode that excludes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import phy
from .traffic import Mpdu

SLOT_US = 9
SIFS_US = 16
DIFS_US = 34
CW_MIN = 15
CW_MAX = 1023
BLOCK_ACK_US = 32
# BlockAck should have arrived SIFS + BA after tx end; two slots of grace.
ACK_TIMEOUT_US = SIFS_US + BLOCK_ACK_US + 2 * SLOT_US
MAX_AMPDU_MPDUS = 64
MAX_AMPDU_US = 5484
RETRY_LIMIT = 10

IDLE, CONTEND, TX = "idle", "contend", "tx"


@dataclass(slots=True)
class Ampdu:
    mpdus: list
    duration_us: int
    dst: int
    mcs: phy.McsEntry


def aggregate(queue: list, mcs: phy.McsEntry, bandwidth_mhz: int) -> Ampdu:
    """A-MPDU of the longest sendable prefix of `queue`: <=64 MPDUs,
    <=5.484 ms airtime, one destination (a BlockAck session is per
    receiver).  Never empty for a non-empty queue, even if a lone MPDU
    overruns the airtime limit at a low MCS.
    """
    dest = queue[0].dst
    rate = mcs.data_rate(bandwidth_mhz)
    # tx_duration(p) > MAX_AMPDU_US exactly when p * 8 / rate exceeds
    # the payload budget, since ceil(x) > L iff x > L for an integer L
    budget_us = MAX_AMPDU_US - phy.PREAMBLE_US
    total = 0
    n = 0
    for m in queue:
        if n == MAX_AMPDU_MPDUS or m.dst != dest:
            break
        if n > 0 and (total + m.payload) * 8 / rate > budget_us:
            break
        total += m.payload
        n += 1
    return Ampdu(queue[:n], phy.tx_duration(total, mcs, bandwidth_mhz), dest, mcs)


def retry_or_drop(mpdu: Mpdu) -> bool:
    """True: bump the retry count, caller re-enqueues.  False: give up."""
    if mpdu.retries < RETRY_LIMIT:
        mpdu.retries += 1
        return True
    return False


@dataclass(slots=True)
class _Tx:
    mac: "LinkMac | None"  # None marks injected foreign occupancy
    ampdu: Ampdu | None
    start: int
    end: int
    collided: bool = False


class Medium:
    """One radio link's channel: arbitration, collisions, busy accounting."""

    def __init__(self, sim, link: phy.LinkSpec, index: int):
        self.sim = sim
        self.link = link
        self.index = index
        self.err_rng = sim.stream(f"phy.err.link{index}")
        self.macs: dict[int, LinkMac] = {}  # by device id
        self.contenders: list[LinkMac] = []
        self.active: list[_Tx] = []
        self.reserved_until = 0  # covers the SIFS + BlockAck tail of a PPDU
        # coalesced busy timeline: completed total + current interval
        self._busy_cum = 0
        self._cur_start = 0
        self._cur_end = 0

    # -- sensing ------------------------------------------------------

    def is_busy(self, now: int) -> bool:
        return bool(self.active) or self.reserved_until > now

    def _mark_busy(self, start: int, end: int):
        if start > self._cur_end:
            self._busy_cum += self._cur_end - self._cur_start
            self._cur_start, self._cur_end = start, end
        elif end > self._cur_end:
            self._cur_end = end

    def busy_total(self, t: int) -> int:
        """Cumulative airtime on this link in [0, t].

        Exact for t within or beyond the current busy interval; estimator
        ticks sample it at non-decreasing event times, which always
        satisfies that.
        """
        partial = min(t, self._cur_end) - self._cur_start
        return self._busy_cum + max(partial, 0)

    # -- contention ---------------------------------------------------

    def add_contender(self, mac: "LinkMac"):
        self.contenders.append(mac)

    def remove_contender(self, mac: "LinkMac"):
        self.contenders.remove(mac)

    def _notify_busy(self, busy_start: int):
        for mac in list(self.contenders):
            mac.on_medium_busy(busy_start)

    def _notify_idle(self):
        now = self.sim.now
        for mac in list(self.contenders):
            mac.on_medium_idle(now)

    def _maybe_idle(self):
        if not self.active and self.reserved_until <= self.sim.now:
            self._notify_idle()

    # -- transmission -------------------------------------------------

    def begin_tx(self, mac, ampdu: Ampdu):
        self._occupy(mac, ampdu, ampdu.duration_us)

    def inject_busy(self, duration_us: int):
        """Foreign occupancy: freezes contenders and counts as busy time."""
        self._occupy(None, None, duration_us)

    def _occupy(self, mac, ampdu, duration_us: int):
        now = self.sim.now
        tx = _Tx(mac, ampdu, now, now + duration_us)
        for other in self.active:  # any overlap corrupts both PPDUs
            other.collided = True
            tx.collided = True
        self.active.append(tx)
        self._mark_busy(tx.start, tx.end)
        self._notify_busy(now)
        self.sim.schedule(tx.end, self._tx_end, tx)

    def _tx_end(self, tx: _Tx):
        self.active.remove(tx)
        if tx.mac is None:
            self._maybe_idle()
            return
        if tx.collided:
            # no preamble decoded, no BlockAck; sender resolves by timeout
            tx.mac.on_tx_collided(tx.ampdu)
            self._maybe_idle()
            return
        # clean PPDU: receiver decodes each MPDU and answers with a
        # BlockAck one SIFS later; the exchange keeps the medium reserved
        now = self.sim.now
        ba_start, ba_end = now + SIFS_US, now + SIFS_US + BLOCK_ACK_US
        self.reserved_until = ba_end
        self._mark_busy(ba_start, ba_end)
        bitmap = tx.mac.decode_bitmap(tx.ampdu)
        receiver = self.macs.get(tx.ampdu.dst)
        if receiver is not None:
            receiver.mark_own_tx(ba_start, ba_end)
        self.sim.schedule(ba_end, self._ba_done, tx, bitmap)

    def _ba_done(self, tx: _Tx, bitmap: list):
        tx.mac.on_block_ack(tx.ampdu, bitmap)
        self._maybe_idle()


class LinkMac:
    """One device's contention state machine on one link."""

    def __init__(self, sim, medium: Medium, device: int, owner,
                 fixed_mcs: int | None = None):
        self.sim = sim
        self.medium = medium
        medium.macs[device] = self
        self.device = device
        self.owner = owner  # upper MAC: build_ampdu() / on_resolution()
        self.link_index = medium.index
        self.bandwidth = medium.link.bandwidth_mhz
        self.fixed_mcs = fixed_mcs  # None: windowed selection per peer
        self.backoff_rng = sim.stream(f"mac.backoff.dev{device}.link{self.link_index}")
        self.rate_rng = sim.stream(f"phy.rate.dev{device}.link{self.link_index}")
        self.peers: dict[int, phy.RateSelector] = {}  # by peer device id
        self.allocated: list[Mpdu] = []
        self.state = IDLE
        self.cw = CW_MIN
        self.backoff = 0
        self.difs_end = 0
        self.grant = None  # pending access event while the medium is idle
        self.in_flight: Ampdu | None = None
        # airtime this device itself put on the link (data PPDUs + BlockAcks)
        self._own_cum = 0
        self._own_start = 0
        self._own_end = 0

    # -- rate selection -----------------------------------------------

    def add_peer(self, dest: int, snr_db: float):
        self.peers[dest] = phy.RateSelector(self.bandwidth, snr_db, self.fixed_mcs)

    def pick_mcs(self, dest: int) -> phy.McsEntry:
        return self.peers[dest].select(self.rate_rng)

    def decided_rate(self, dest: int) -> float:
        """Rate (Mb/s) of the MCS the next transmission to dest would use."""
        return self.peers[dest].decided_rate()

    # -- contention ---------------------------------------------------

    def ensure_contending(self):
        """Enter contention if idle; no-op while contending or transmitting."""
        if self.state != IDLE:
            return
        self.state = CONTEND
        self.backoff = self.backoff_rng.randint(0, self.cw)
        self.medium.add_contender(self)
        if not self.medium.is_busy(self.sim.now):
            self._arm_grant(self.sim.now)

    def _arm_grant(self, idle_since: int):
        self.difs_end = idle_since + DIFS_US
        self.grant = self.sim.schedule(self.difs_end + self.backoff * SLOT_US, self._on_grant)

    def on_medium_busy(self, busy_start: int):
        if self.grant is None:
            return
        if self.difs_end + self.backoff * SLOT_US <= busy_start:
            # our own grant, armed for this instant (neither term changes
            # while it is pending), fires this same microsecond:
            # simultaneous access, let it collide
            return
        self.sim.cancel(self.grant)
        self.grant = None
        if busy_start > self.difs_end:
            consumed = (busy_start - self.difs_end) // SLOT_US
            self.backoff -= min(consumed, self.backoff)

    def on_medium_idle(self, idle_time: int):
        if self.state == CONTEND and self.grant is None:
            self._arm_grant(idle_time)

    def _on_grant(self):
        self.grant = None
        ampdu = self.owner.build_ampdu(self)
        if ampdu is None:
            self._leave_contention()
            return
        self.state = TX
        self.medium.remove_contender(self)
        self.in_flight = ampdu
        self.mark_own_tx(self.sim.now, self.sim.now + ampdu.duration_us)
        self.medium.begin_tx(self, ampdu)

    def _leave_contention(self):
        self.state = IDLE
        self.medium.remove_contender(self)

    def abort_contention(self):
        """Owner recalled this link's allocation while we were waiting."""
        if self.state != CONTEND:
            return
        if self.grant is not None:
            self.sim.cancel(self.grant)
            self.grant = None
        self._leave_contention()

    # -- outcome ------------------------------------------------------

    def decode_bitmap(self, ampdu: Ampdu) -> list:
        """Per-MPDU delivery flags at the receiver, noise errors only."""
        snr = self.peers[ampdu.dst].snr_db
        p = phy.error_probability(ampdu.mcs, snr)
        if p <= 0.0:
            return [True] * len(ampdu.mpdus)
        rng = self.medium.err_rng
        return [not phy.mpdu_error(ampdu.mcs, snr, rng) for _ in ampdu.mpdus]

    def on_tx_collided(self, ampdu: Ampdu):
        self.sim.schedule(self.sim.now + ACK_TIMEOUT_US, self._on_timeout, ampdu)

    def _on_timeout(self, ampdu: Ampdu):
        self.cw = min((self.cw + 1) * 2 - 1, CW_MAX)
        self.peers[ampdu.dst].record(ampdu.mcs.index, 0.0)
        self.in_flight = None
        self.state = IDLE
        self.owner.on_resolution(self, ampdu, None)

    def on_block_ack(self, ampdu: Ampdu, bitmap: list):
        self.cw = CW_MIN
        self.peers[ampdu.dst].record(ampdu.mcs.index, sum(bitmap) / len(bitmap))
        self.in_flight = None
        self.state = IDLE
        self.owner.on_resolution(self, ampdu, bitmap)

    # -- busy-time accounting ------------------------------------------

    def mark_own_tx(self, start: int, end: int):
        self._own_cum += self._own_end - self._own_start
        self._own_start, self._own_end = start, end

    def own_tx_total(self, t: int) -> int:
        partial = min(t, self._own_end) - self._own_start
        return self._own_cum + max(partial, 0)

    def sensed_busy_total(self, t: int, count_own_tx: bool = True) -> int:
        """Airtime this device has sensed on the link up to t."""
        total = self.medium.busy_total(t)
        if not count_own_tx:
            total -= self.own_tx_total(t)
        return total
