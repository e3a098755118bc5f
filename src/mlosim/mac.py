"""Per-link lower MAC and the shared medium it contends on.

One `LinkMac` instance exists per device per radio link; all MACs on a
link share one `Medium`.  Each MAC keeps one `phy.RateSelector` per peer
(add_peer), holding the SNR towards it; under fixed-rate control its MCS
set has one entry.  A MAC calls its upper MAC only through build_ampdu and
on_resolution.  Contention is DCF-style CSMA/CA with a single access
category (CWmin 15, CWmax 1023, AIFS = DIFS): DIFS sensing, slotted
random backoff, binary exponential backoff on acknowledgment timeout.
A MAC keeps its CW; the `Medium` holds every countdown and draws it from
that CW, freezes it when busy and resumes it when idle.  An exchange holds
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
time (data plus BlockAck airtime, not interframe gaps) is one coalesced
`BusyTime` per medium, which the medium writes and the link's congestion
estimator reads for any period in O(1).
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
    It holds each contender's countdown, frozen while it is busy and resumed
    when it turns idle; an exchange in `active` holds it busy until its
    BlockAck ends, or until its PPDU ends if collided."""

    def __init__(self, sim, link: phy.LinkSpec, index: int):
        self.sim = sim
        self.link = link
        self.index = index
        self.err_rng = sim.stream(f"phy.err.link{index}")
        # per contender [backoff slots left, DIFS end, pending grant], frozen
        # and resumed in entry order; neither step adds or removes one
        self.contenders: dict[LinkMac, list] = {}
        self.active: list[Ampdu] = []  # exchanges holding the medium
        self.busy = BusyTime()

    # -- sensing ------------------------------------------------------

    def busy_total(self, t: int) -> int:
        """Cumulative airtime on this link in [0, t]."""
        return self.busy.total(t)

    # -- contention ---------------------------------------------------

    def contend(self, mac):
        """Join the contenders with a backoff drawn from mac's CW, arming a
        grant if idle.  Only while mac neither contends nor transmits."""
        count = self.contenders[mac] = [mac.backoff_rng.randrange(mac.cw + 1), 0, None]
        if not self.active:
            self._arm(mac, count, self.sim.now)

    def withdraw(self, mac):
        """Leave contention, cancelling any pending grant.  Only while contending."""
        grant = self.contenders.pop(mac)[2]
        if grant is not None:
            self.sim.cancel(grant)

    def _arm(self, mac, count, idle_since: int):
        count[1] = idle_since + DIFS_US
        count[2] = self.sim.schedule(count[1] + count[0] * SLOT_US, self._grant, mac)

    def _grant(self, mac):
        del self.contenders[mac]  # so begin_tx's freeze skips it
        mac.transmit()

    def _maybe_idle(self):
        if self.active:
            return
        now = self.sim.now
        for mac, count in self.contenders.items():  # resume every frozen countdown
            if count[2] is None:  # contend may have armed it inside resolve
                self._arm(mac, count, now)

    # -- transmission -------------------------------------------------

    def begin_tx(self, mac, ampdu: Ampdu):
        """Start a PPDU from mac, or foreign occupancy if mac is None."""
        now = self.sim.now
        ampdu.mac = mac
        ampdu.end = now + ampdu.duration_us
        for other in self.active:  # any overlap corrupts both PPDUs
            other.collided = True
            ampdu.collided = True
        self.active.append(ampdu)
        self.busy.mark(now, ampdu.end)
        for count in self.contenders.values():  # freeze every pending countdown
            backoff, difs_end, grant = count
            # a grant armed for this instant (neither term changes while
            # it is pending) fires this same microsecond: let it collide
            if grant is None or difs_end + backoff * SLOT_US <= now:
                continue
            self.sim.cancel(grant)
            count[2] = None
            if now > difs_end:  # a later grant leaves consumed < backoff
                count[0] -= (now - difs_end) // SLOT_US
        self.sim.schedule(ampdu.end, self._tx_end, ampdu)

    def inject_busy(self, duration_us: int):
        """Foreign occupancy: freezes contenders and counts as busy time."""
        self.begin_tx(None, Ampdu([], duration_us, None, None))

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
        ba_end = now + SIFS_US + BLOCK_ACK_US
        self.busy.mark(now + SIFS_US, ba_end)
        self.sim.schedule(ba_end, self._ba_done, tx, tx.mac.decode_bitmap(tx))

    def _ba_done(self, tx: Ampdu, bitmap: list):
        self.active.remove(tx)
        tx.mac.resolve(tx, bitmap)
        self._maybe_idle()


class LinkMac:
    """One device's MAC on one link; the `Medium` holds its backoff countdown."""

    def __init__(self, sim, medium: Medium, device: int, owner,
                 fixed_mcs: int | None = None):
        self.sim = sim
        self.medium = medium
        self.device = device
        self.owner = owner  # upper MAC: build_ampdu() / on_resolution()
        self.bandwidth = medium.link.bandwidth_mhz
        self.fixed_mcs = fixed_mcs  # None: windowed selection per peer
        self.backoff_rng = sim.stream(f"mac.backoff.dev{device}.link{medium.index}")
        self.rate_rng = sim.stream(f"phy.rate.dev{device}.link{medium.index}")
        self.peers: dict[int, phy.RateSelector] = {}  # by peer device id
        self.cw = CW_MIN  # the medium draws each backoff from [0, cw]
        self.in_flight: Ampdu | None = None  # set exactly while transmitting

    # -- rate selection -----------------------------------------------

    def add_peer(self, dest: int, snr_db: float):
        self.peers[dest] = phy.RateSelector(self.bandwidth, snr_db, self.fixed_mcs)

    def pick_mcs(self, dest: int) -> phy.McsEntry:
        return self.peers[dest].select(self.rate_rng)

    def decided_rate(self, dest: int) -> float:
        """Rate (Mb/s) of the MCS the next transmission to dest would use."""
        return self.peers[dest].decided_rate()

    # -- exchange -----------------------------------------------------

    def transmit(self):
        """On the medium's grant: send the A-MPDU the upper MAC builds."""
        self.in_flight = self.owner.build_ampdu(self)
        self.medium.begin_tx(self, self.in_flight)

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
