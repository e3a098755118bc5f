"""Per-link lower MAC and the shared medium it contends on.

One `LinkMac` instance exists per device per radio link; all MACs on a
link share one `Medium`, which finds a PPDU's receiver among them by
device id.  Each MAC keeps one `phy.RateSelector` per peer (add_peer),
holding the SNR towards it; under fixed-rate control its MCS set has one
entry.  A MAC calls its upper MAC only through build_ampdu and
on_resolution.  Contention is DCF-style CSMA/CA with a single access
category (CWmin 15, CWmax 1023, AIFS = DIFS): DIFS sensing, slotted
random backoff, binary exponential backoff on acknowledgment timeout.
The `Medium` runs every countdown: it freezes each pending one when it
turns busy and resumes each one when it turns idle.  An exchange holds
the medium until its BlockAck ends, or until its PPDU ends if collided.
Data goes out as AMPDUs bounded by both a 64-MPDU count limit and a
5.484 ms airtime limit; delivery is confirmed by a fixed-duration
BlockAck that the receiver returns one SIFS after a non-collided PPDU.
Every exchange ends in `LinkMac.resolve`, with the BlockAck bitmap or,
after an acknowledgment timeout, with None.

Collisions are capture-free: any overlap corrupts every MPDU of every
overlapped PPDU, and no BlockAck is returned.  Two transmissions can only
overlap by starting in the same microsecond, because a grant scheduled for
a later instant is frozen the moment the medium turns busy.

A MAC contends exactly while it is in its medium's contender table, where
its upper MAC keeps it while it has MPDUs for it, so every grant sends a
PPDU; it transmits exactly while that PPDU is in flight.  Its `Ampdu` is
the one record of the exchange, from the grant to the resolution.  Busy
time (data plus BlockAck airtime, not interframe gaps) is a coalesced
`BusyTime` that estimators read for any period in O(1): one per medium and
one per MAC for the device's own airtime, which one estimator mode
subtracts.  The medium writes every busy and every own interval.
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


@dataclass(slots=True, eq=False)
class Ampdu:
    mpdus: list
    duration_us: int
    dst: int | None  # None, as mcs and mac, for foreign occupancy
    mcs: phy.McsEntry | None
    mac: "LinkMac | None" = None  # the sender; the medium sets these three
    end: int = 0
    collided: bool = False


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


class BusyTime:
    """Coalesced busy timeline: completed total plus the current interval.

    Intervals are marked in non-decreasing start order.  total(t) is exact
    for t at or after the last start; estimator ticks sample it at
    non-decreasing event times, which always satisfies that.
    """

    __slots__ = ("_cum", "_start", "_end")

    def __init__(self):
        self._cum = self._start = self._end = 0

    def mark(self, start: int, end: int):
        if start > self._end:
            self._cum += self._end - self._start
            self._start, self._end = start, end
        elif end > self._end:
            self._end = end

    def total(self, t: int) -> int:
        """Busy time in [0, t]."""
        return self._cum + max(min(t, self._end) - self._start, 0)


class Medium:
    """One radio link's channel: contention, collisions, busy accounting.
    It freezes every countdown when it turns busy and resumes every one
    when it turns idle; an exchange in `active` holds it busy until its
    BlockAck ends, or until its PPDU ends if collided."""

    def __init__(self, sim, link: phy.LinkSpec, index: int):
        self.sim = sim
        self.link = link
        self.index = index
        self.err_rng = sim.stream(f"phy.err.link{index}")
        self.macs: dict[int, LinkMac] = {}  # by device id
        # frozen and resumed in entry order; neither step adds or removes one
        self.contenders: dict[LinkMac, None] = {}
        self.active: list[Ampdu] = []  # exchanges holding the medium
        self.busy = BusyTime()

    # -- sensing ------------------------------------------------------

    def busy_total(self, t: int) -> int:
        """Cumulative airtime on this link in [0, t]."""
        return self.busy.total(t)

    def _maybe_idle(self):
        if self.active:
            return
        now = self.sim.now
        for mac in self.contenders:  # resume every frozen countdown
            if mac.grant is None:
                mac._arm_grant(now)

    # -- transmission -------------------------------------------------

    def begin_tx(self, mac, ampdu: Ampdu):
        ampdu.mac = mac
        self._occupy(ampdu)

    def inject_busy(self, duration_us: int):
        """Foreign occupancy: freezes contenders and counts as busy time."""
        self._occupy(Ampdu([], duration_us, None, None))

    def _occupy(self, tx: Ampdu):
        now = self.sim.now
        tx.end = now + tx.duration_us
        for other in self.active:  # any overlap corrupts both PPDUs
            other.collided = True
            tx.collided = True
        self.active.append(tx)
        self.busy.mark(now, tx.end)
        if tx.mac is not None:
            tx.mac.own.mark(now, tx.end)
        for other in self.contenders:  # freeze every pending countdown
            # a grant armed for this instant (neither term changes while
            # it is pending) fires this same microsecond: let it collide
            if other.grant is None or other.difs_end + other.backoff * SLOT_US <= now:
                continue
            self.sim.cancel(other.grant)
            other.grant = None
            if now > other.difs_end:  # a later grant leaves consumed < backoff
                other.backoff -= (now - other.difs_end) // SLOT_US
        self.sim.schedule(tx.end, self._tx_end, tx)

    def _tx_end(self, tx: Ampdu):
        if tx.mac is None or tx.collided:
            self.active.remove(tx)
            if tx.mac is not None:
                # no preamble decoded, no BlockAck; sender resolves by timeout
                tx.mac.on_tx_collided(tx)
            self._maybe_idle()
            return
        # clean PPDU: receiver decodes each MPDU and answers with a
        # BlockAck one SIFS later; the exchange holds the medium until then
        now = self.sim.now
        ba_start, ba_end = now + SIFS_US, now + SIFS_US + BLOCK_ACK_US
        self.busy.mark(ba_start, ba_end)
        bitmap = tx.mac.decode_bitmap(tx)
        receiver = self.macs.get(tx.dst)
        if receiver is not None:
            receiver.own.mark(ba_start, ba_end)
        self.sim.schedule(ba_end, self._ba_done, tx, bitmap)

    def _ba_done(self, tx: Ampdu, bitmap: list):
        self.active.remove(tx)
        tx.mac.resolve(tx, bitmap)
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
        self.cw = CW_MIN
        self.backoff = 0
        self.difs_end = 0
        self.grant = None  # pending access event while the medium is idle
        self.in_flight: Ampdu | None = None  # set exactly while transmitting
        # airtime this device itself put on the link (data PPDUs + BlockAcks);
        # never overlapping, since an overlapped PPDU gets no BlockAck
        self.own = BusyTime()

    # -- rate selection -----------------------------------------------

    def add_peer(self, dest: int, snr_db: float):
        self.peers[dest] = phy.RateSelector(self.bandwidth, snr_db, self.fixed_mcs)

    def pick_mcs(self, dest: int) -> phy.McsEntry:
        return self.peers[dest].select(self.rate_rng)

    def decided_rate(self, dest: int) -> float:
        """Rate (Mb/s) of the MCS the next transmission to dest would use."""
        return self.peers[dest].decided_rate()

    # -- contention ---------------------------------------------------

    def enter_contention(self):
        """Draw a backoff and join the contenders, arming a grant if the
        medium is idle.  Only while neither contending nor transmitting."""
        self.backoff = self.backoff_rng.randint(0, self.cw)
        self.medium.contenders[self] = None
        if not self.medium.active:
            self._arm_grant(self.sim.now)

    def _arm_grant(self, idle_since: int):
        self.difs_end = idle_since + DIFS_US
        self.grant = self.sim.schedule(self.difs_end + self.backoff * SLOT_US, self._on_grant)

    def _on_grant(self):
        self.grant = None
        del self.medium.contenders[self]
        self.in_flight = self.owner.build_ampdu(self)
        self.medium.begin_tx(self, self.in_flight)

    def abort_contention(self):
        """Leave contention, cancelling any pending grant.  Only while contending."""
        if self.grant is not None:
            self.sim.cancel(self.grant)
            self.grant = None
        del self.medium.contenders[self]

    # -- outcome ------------------------------------------------------

    def decode_bitmap(self, ampdu: Ampdu) -> list:
        """Per-MPDU delivery flags at the receiver, noise errors only."""
        p = phy.error_probability(ampdu.mcs, self.peers[ampdu.dst].snr_db)
        if p <= 0.0:
            return [True] * len(ampdu.mpdus)
        if p >= 1.0:
            return [False] * len(ampdu.mpdus)
        rng = self.medium.err_rng
        return [rng.random() >= p for _ in ampdu.mpdus]

    def on_tx_collided(self, ampdu: Ampdu):
        self.sim.schedule(self.sim.now + ACK_TIMEOUT_US, self.resolve, ampdu, None)

    def resolve(self, ampdu: Ampdu, bitmap: list | None):
        """End the exchange: a BlockAck bitmap, or None when the ACK timed out."""
        timed_out = bitmap is None
        self.cw = min((self.cw + 1) * 2 - 1, CW_MAX) if timed_out else CW_MIN
        delivered = 0.0 if timed_out else sum(bitmap) / len(bitmap)
        self.peers[ampdu.dst].record(ampdu.mcs.index, delivered)
        self.in_flight = None
        self.owner.on_resolution(ampdu, bitmap)

    def sensed_busy_total(self, t: int, count_own_tx: bool = True) -> int:
        """Airtime this device has sensed on the link up to t."""
        total = self.medium.busy_total(t)
        if not count_own_tx:
            total -= self.own.total(t)
        return total
