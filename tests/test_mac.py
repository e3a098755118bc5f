import pytest
from hypothesis import example, given, settings, strategies as st

from mlosim import phy
from mlosim.engine import Simulator, rng_stream
from mlosim.mac import (
    ACK_TIMEOUT_US,
    BLOCK_ACK_US,
    CW_MAX,
    CW_MIN,
    DIFS_US,
    MAX_AMPDU_MPDUS,
    MAX_AMPDU_US,
    SIFS_US,
    SLOT_US,
    Ampdu,
    BusyTime,
    LinkMac,
    Medium,
    aggregate,
    retry_or_drop,
)
from mlosim.traffic import AppFrame, Mpdu, default_stream_set, fragment

UL, DL = default_stream_set()[1], default_stream_set()[0]


def make_mpdus(size, station=1, stream=UL, index=0):
    frame = AppFrame(stream=stream, station=station, index=index,
                     arrival_time=0, size=size)
    return fragment(frame)


class FixedRng:
    """Stand-in backoff stream yielding a scripted slot sequence."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, n):
        return self.values.pop(0)


class StubOwner:
    """Minimal upper MAC: serves a single queue, records outcomes."""

    def __init__(self, sim):
        self.sim = sim
        self.queue = []
        self.grant_times = []
        self.resolutions = []  # (time, ampdu, bitmap)

    def build_ampdu(self, mac):
        self.grant_times.append(self.sim.now)
        ampdu = aggregate(self.queue, mac.pick_mcs(self.queue[0].dst), mac.bandwidth)
        del self.queue[:len(ampdu.mpdus)]
        return ampdu

    def on_resolution(self, ampdu, bitmap):
        self.resolutions.append((self.sim.now, ampdu, bitmap))


def setup_link(n_macs=1, bw=80):
    sim = Simulator(seed=1)
    medium = Medium(sim, phy.LinkSpec(5.5, bw), 0)
    macs, owners = [], []
    for d in range(1, n_macs + 1):
        owner = StubOwner(sim)
        mac = LinkMac(sim, medium, d, owner, fixed_mcs=11)
        for peer in range(n_macs + 1):  # the AP (0) and every other MAC
            if peer != d:
                mac.add_peer(peer, 100.0)
        owners.append(owner)
        macs.append(mac)
    return sim, medium, macs, owners


MCS11_80 = phy.MCS_TABLE[11]
DUR_5 = phy.tx_duration(7500, MCS11_80, 80)  # 149 us


# -- aggregation -------------------------------------------------------

def test_aggregate_whole_dl_frame_fits():
    mpdus = make_mpdus(21000)
    got = aggregate(mpdus, phy.MCS_TABLE[11], 80).mpdus
    assert len(got) == 14


def test_aggregate_count_limit():
    queue = []
    for k in range(3):
        queue.extend(make_mpdus(60000, index=k))  # 40 MPDUs each
    got = aggregate(queue, phy.MCS_TABLE[11], 80).mpdus
    assert len(got) == 64


def test_aggregate_duration_limit_at_low_mcs():
    queue = make_mpdus(60000)  # 40 MPDUs
    got = aggregate(queue, phy.MCS_TABLE[0], 20).mpdus  # 8.6 Mb/s
    assert len(got) == 3
    assert phy.tx_duration(4500, phy.MCS_TABLE[0], 20) <= 5484
    assert phy.tx_duration(6000, phy.MCS_TABLE[0], 20) > 5484


def test_aggregate_never_empty():
    queue = make_mpdus(1500)
    got = aggregate(queue, phy.MCS_TABLE[0], 20).mpdus
    assert len(got) == 1


def test_aggregate_stops_at_destination_change():
    queue = make_mpdus(3000, station=1, stream=DL) + make_mpdus(3000, station=2, stream=DL)
    got = aggregate(queue, phy.MCS_TABLE[11], 80).mpdus
    assert len(got) == 2
    assert all(m.dst == 1 for m in got)


def test_mpdu_dest_direction():
    assert make_mpdus(100, station=3, stream=DL)[0].dst == 3
    assert make_mpdus(100, station=3, stream=UL)[0].dst == 0


def reference_prefix(queue, mcs, bandwidth_mhz):
    """The A-MPDU cut with one tx_duration call per candidate MPDU."""
    n, total = 0, 0
    for m in queue:
        if n == MAX_AMPDU_MPDUS or m.dst != queue[0].dst:
            break
        if n > 0 and phy.tx_duration(total + m.payload, mcs, bandwidth_mhz) > MAX_AMPDU_US:
            break
        total += m.payload
        n += 1
    return queue[:n]


# 3 x 1500 + 1348 = 5848 B fills the MCS 0 / 20 MHz budget to the microsecond
@example([(1500, 0)] * 3 + [(1348, 0), (1, 0)])
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 1500), st.sampled_from([0, 1])),
                min_size=1, max_size=90))
def test_aggregate_matches_tx_duration_reference(items):
    frame = make_mpdus(100)[0].frame
    queue = [Mpdu(frame, i, payload, dst) for i, (payload, dst) in enumerate(items)]
    for mcs in phy.MCS_TABLE:
        for bw in phy.BANDWIDTHS_MHZ:
            ampdu = aggregate(queue, mcs, bw)
            assert ampdu.mpdus == reference_prefix(queue, mcs, bw)
            payload = sum(m.payload for m in ampdu.mpdus)
            assert ampdu.duration_us == phy.tx_duration(payload, mcs, bw)
            assert (ampdu.dst, ampdu.mcs) == (queue[0].dst, mcs)


def test_retry_or_drop_limit():
    m = make_mpdus(1500)[0]
    for expected in range(1, 11):
        assert retry_or_drop(m) is True
        assert m.retries == expected
    assert retry_or_drop(m) is False
    assert m.retries == 10


# -- contention timing -------------------------------------------------

def test_zero_backoff_grants_after_difs():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([0])
    owner.queue = make_mpdus(7500)
    medium.contend(mac)
    sim.run_until(1000)
    assert owner.grant_times == [DIFS_US]


def test_backoff_seven_idle_medium():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([7])
    owner.queue = make_mpdus(7500)
    medium.contend(mac)
    sim.run_until(1000)
    assert owner.grant_times == [DIFS_US + 63]


def test_exchange_timeline_and_resolution():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([0])
    owner.queue = make_mpdus(7500)
    medium.contend(mac)
    sim.run_until(10_000)
    t_res, ampdu, bitmap = owner.resolutions[0]
    assert ampdu.duration_us == DUR_5
    assert bitmap == [True] * 5
    assert t_res == DIFS_US + DUR_5 + SIFS_US + BLOCK_ACK_US
    assert mac.cw == CW_MIN


def test_contender_arriving_on_busy_medium_waits_for_idle():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([1])
    owner.queue = make_mpdus(7500)
    medium.inject_busy(100)
    sim.schedule(10, medium.contend, mac)
    sim.run_until(10_000)
    assert owner.grant_times == [100 + DIFS_US + 9]


def test_freeze_consumes_whole_slots_only():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([5])
    owner.queue = make_mpdus(7500)
    medium.contend(mac)  # difs_end 34, grant would be at 79
    sim.schedule(55, medium.inject_busy, 100)  # 21 us idle = 2 full slots
    sim.run_until(10_000)
    # 2 of 5 slots consumed; resume at 155: DIFS to 189 + 3 slots
    assert owner.grant_times == [189 + 27]
    assert mac not in medium.contenders  # a grant leaves contention


def test_permanently_busy_medium_starves():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([0])
    owner.queue = make_mpdus(7500)
    medium.inject_busy(10_000_000)
    sim.schedule(5, medium.contend, mac)
    sim.run_until(1_000_000)
    assert owner.grant_times == []
    assert mac in medium.contenders


def test_second_contender_defers_through_blockack():
    sim, medium, macs, owners = setup_link(n_macs=2)
    a, b = macs
    oa, ob = owners
    a.backoff_rng = FixedRng([0])
    b.backoff_rng = FixedRng([2])
    oa.queue = make_mpdus(7500)
    ob.queue = make_mpdus(7500, station=2)
    medium.contend(a)
    medium.contend(b)
    sim.run_until(10_000)
    assert oa.grant_times == [DIFS_US]
    # a holds the medium through data + SIFS + BA; b resumes after
    ba_end = DIFS_US + DUR_5 + SIFS_US + BLOCK_ACK_US
    assert ob.grant_times == [ba_end + DIFS_US + 18]


@pytest.mark.parametrize("after_tx_end", [5, SIFS_US + 10], ids=["sifs-gap", "block-ack"])
def test_new_contender_during_sifs_gap_stays_frozen(after_tx_end):
    # the exchange holds the medium through its SIFS gap and its BlockAck
    sim, medium, macs, owners = setup_link(n_macs=2)
    a, b = macs
    oa, ob = owners
    a.backoff_rng = FixedRng([0])
    b.backoff_rng = FixedRng([0])
    oa.queue = make_mpdus(7500)
    ob.queue = make_mpdus(7500, station=2)
    medium.contend(a)
    tx_end = DIFS_US + DUR_5
    sim.schedule(tx_end + after_tx_end, medium.contend, b)
    sim.run_until(10_000)
    ba_end = tx_end + SIFS_US + BLOCK_ACK_US
    assert ob.grant_times == [ba_end + DIFS_US]


def test_same_slot_grants_collide_and_double_cw():
    sim, medium, macs, owners = setup_link(n_macs=2)
    a, b = macs
    oa, ob = owners
    a.backoff_rng = FixedRng([3])
    b.backoff_rng = FixedRng([3])
    oa.queue = make_mpdus(7500)
    ob.queue = make_mpdus(7500, station=2)
    medium.contend(a)
    medium.contend(b)
    sim.run_until(10_000)
    t_grant = DIFS_US + 27
    t_res = t_grant + DUR_5 + ACK_TIMEOUT_US
    assert oa.resolutions[0][0] == t_res and oa.resolutions[0][2] is None
    assert ob.resolutions[0][0] == t_res and ob.resolutions[0][2] is None
    assert a.cw == 31 and b.cw == 31


def test_beb_ladder_caps_at_cw_max():
    sim, medium, (mac,), (owner,) = setup_link()
    ampdu = Ampdu(make_mpdus(1500), 100, 0, MCS11_80)
    seen = []
    for _ in range(8):
        mac.resolve(ampdu, None)
        seen.append(mac.cw)
    assert seen == [31, 63, 127, 255, 511, 1023, 1023, 1023]
    mac.resolve(ampdu, [True])
    assert mac.cw == CW_MIN


def test_abort_contention_cancels_pending_grant():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([4])
    medium.contend(mac)
    sim.schedule(40, medium.withdraw, mac)
    sim.run_until(10_000)
    assert owner.grant_times == []
    assert medium.contenders == {}



def test_withdrawn_contender_is_not_armed_when_medium_turns_idle():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([5])
    owner.queue = make_mpdus(7500)
    medium.contend(mac)  # grant would be at 79
    sim.schedule(55, medium.inject_busy, 100)  # frozen with 3 slots left
    sim.schedule(100, medium.withdraw, mac)  # while the medium is busy
    sim.run_until(10_000)
    assert owner.grant_times == []
    assert medium.contenders == {}


def test_reentry_after_withdraw_draws_a_fresh_backoff():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([5, 1])
    owner.queue = make_mpdus(7500)
    medium.contend(mac)
    sim.schedule(55, medium.inject_busy, 100)  # frozen with 3 slots left
    sim.schedule(100, medium.withdraw, mac)
    sim.schedule(120, medium.contend, mac)  # draws 1; the 3 slots are gone
    sim.run_until(10_000)
    assert owner.grant_times == [155 + DIFS_US + 9]

# -- error draw --------------------------------------------------------

class CountingRng:
    """Error stream that counts its draws."""

    def __init__(self, seed=0):
        self.rng = rng_stream(seed, "phy.err.link0")
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.rng.random()


def ampdu_at_margin(mac, margin_db, n=10):
    """n MPDUs at MCS 5 to a peer whose SNR sits margin_db off its threshold."""
    mcs = phy.MCS_TABLE[5]
    mac.peers[0].snr_db = mcs.min_snr_db + margin_db
    return Ampdu([None] * n, 100, 0, mcs)


def test_decode_bitmap_draws_nothing_outside_ramp():
    sim, medium, (mac,), _ = setup_link()
    medium.err_rng = rng = CountingRng()
    assert mac.decode_bitmap(ampdu_at_margin(mac, 5)) == [True] * 10
    assert mac.decode_bitmap(ampdu_at_margin(mac, -5)) == [False] * 10
    assert rng.draws == 0


def test_decode_bitmap_error_rate_matches_probability():
    sim, medium, (mac,), _ = setup_link()
    medium.err_rng = rng = CountingRng()
    ampdu = ampdu_at_margin(mac, 1, n=20_000)  # p = 0.25
    bitmap = mac.decode_bitmap(ampdu)
    assert rng.draws == len(bitmap) == 20_000  # one draw per MPDU
    assert abs(bitmap.count(False) / 20_000 - 0.25) < 0.02


# -- busy-time accounting ----------------------------------------------

def brute_force_busy(intervals, t):
    """Microseconds of [0, t] covered by the union of the intervals."""
    covered = set()
    for start, end in intervals:
        covered.update(range(start, min(end, t)))
    return len(covered)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 400)), min_size=1,
                max_size=12),
       st.integers(0, 500))
def test_busy_time_total_matches_interval_union(steps, past_last):
    # starts as non-decreasing gaps, each interval some length past its start
    intervals, start = [], 0
    for gap, length in steps:
        start += gap
        intervals.append((start, start + length))
    busy = BusyTime()
    for s, e in intervals:
        busy.mark(s, e)
    t = intervals[-1][0] + past_last
    assert busy.total(t) == brute_force_busy(intervals, t)


def test_busy_total_counts_data_and_ba_not_gaps():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([0])
    owner.queue = make_mpdus(7500)
    medium.contend(mac)
    sim.run_until(10_000)
    assert medium.busy_total(10_000) == DUR_5 + BLOCK_ACK_US


def test_own_tx_attribution_sender_and_ba_receiver():
    sim, medium, macs, owners = setup_link(n_macs=2)
    a, b = macs
    oa, _ = owners
    assert medium.macs[b.device] is b
    a.backoff_rng = FixedRng([0])
    oa.queue = make_mpdus(7500, station=b.device, stream=DL)  # addressed to b
    medium.contend(a)
    sim.run_until(10_000)
    assert a.own.total(10_000) == DUR_5
    assert b.own.total(10_000) == BLOCK_ACK_US
    # what each device senses of the others' airtime
    assert medium.busy_total(10_000) - a.own.total(10_000) == BLOCK_ACK_US
    assert medium.busy_total(10_000) - b.own.total(10_000) == DUR_5
    assert medium.busy_total(10_000) == DUR_5 + BLOCK_ACK_US


def test_busy_interval_splits_across_query_points():
    sim, medium, _, _ = setup_link()
    sim.schedule(900, medium.inject_busy, 200)  # straddles t=1000
    sim.run_until(2_000)
    assert medium.busy_total(1000) == 100
    assert medium.busy_total(1100) == 200
    assert medium.busy_total(950) == 50


def test_busy_total_never_exceeds_window():
    # sampled at event time like the estimator ticks do
    sim, medium, _, _ = setup_link()
    for t in range(0, 5000, 500):
        sim.schedule(t, medium.inject_busy, 400)
    samples = []
    for t in range(0, 10_001, 777):
        sim.schedule(t, lambda: samples.append((sim.now, medium.busy_total(sim.now))))
    sim.run_until(10_000)
    assert all(0 <= busy <= t for t, busy in samples)
    for (t0, b0), (t1, b1) in zip(samples, samples[1:]):
        assert 0 <= b1 - b0 <= t1 - t0


def test_collided_ppdus_count_once_in_busy_time():
    sim, medium, macs, owners = setup_link(n_macs=2)
    a, b = macs
    a.backoff_rng = FixedRng([0])
    b.backoff_rng = FixedRng([0])
    owners[0].queue = make_mpdus(7500)
    owners[1].queue = make_mpdus(7500, station=2)
    medium.contend(a)
    medium.contend(b)
    sim.run_until(10_000)
    assert medium.busy_total(10_000) == DUR_5  # overlap coalesced, no BA


def test_collided_senders_own_only_their_ppdu():
    sim, medium, macs, owners = setup_link(n_macs=2)
    a, b = macs
    a.backoff_rng = FixedRng([0])
    b.backoff_rng = FixedRng([0])
    owners[0].queue = make_mpdus(7500)
    owners[1].queue = make_mpdus(3000, station=2)
    medium.contend(a)
    medium.contend(b)
    sim.run_until(10_000)
    assert [o.resolutions[0][2] for o in owners] == [None, None]
    # each ledger holds its own PPDU's airtime, and no BlockAck was sent
    assert a.own.total(10_000) == DUR_5
    assert b.own.total(10_000) == phy.tx_duration(3000, MCS11_80, 80)


def test_exchange_is_one_record_from_grant_to_resolution():
    sim, medium, (mac,), (owner,) = setup_link()
    mac.backoff_rng = FixedRng([0])
    owner.queue = make_mpdus(7500)
    medium.contend(mac)
    sim.run_until(DIFS_US)
    ampdu = mac.in_flight
    assert medium.active == [ampdu]
    assert ampdu.mac is mac and ampdu.end == DIFS_US + DUR_5
    sim.run_until(10_000)
    assert owner.resolutions[0][1] is ampdu
    assert medium.active == [] and mac.in_flight is None
    medium.inject_busy(100)
    (foreign,) = medium.active
    assert isinstance(foreign, Ampdu)
    assert foreign.mpdus == [] and foreign.mac is None


# -- saturation against Bianchi's model ----------------------------------

def bianchi(n, ppdu_us, payload_bits):
    """(collision probability, throughput in Mb/s) of n saturated DCF
    stations: G. Bianchi, IEEE JSAC 18(3), 2000.  W = CW_MIN + 1 and
    m = 6 backoff stages reach CW_MAX; the fixed point in p is found by
    bisection."""
    w, m = CW_MIN + 1, 6
    assert w * 2 ** m - 1 == CW_MAX

    def tau_of(p):  # Bianchi's (7), its 1 - 2p factor divided out
        return 2 / (1 + w + p * w * sum((2 * p) ** i for i in range(m)))

    lo, hi = 0.0, 1.0
    for _ in range(60):
        p = (lo + hi) / 2
        if 1 - (1 - tau_of(p)) ** (n - 1) > p:
            lo = p
        else:
            hi = p
    tau = tau_of(p)
    p_tr = 1 - (1 - tau) ** n  # some station transmits in a slot
    p_s = n * tau * (1 - tau) ** (n - 1) / p_tr  # exactly one does
    t_s = ppdu_us + SIFS_US + BLOCK_ACK_US + DIFS_US
    t_c = ppdu_us + DIFS_US
    slot = (1 - p_tr) * SLOT_US + p_tr * p_s * t_s + p_tr * (1 - p_s) * t_c
    return p, p_s * p_tr * payload_bits / slot


class SaturatedOwner:
    """Upper MAC whose queue never empties: 8 x 1500 B in every PPDU."""

    def __init__(self, station):
        frame = make_mpdus(1500, station=station)[0].frame
        self.mpdus = [Mpdu(frame, i, 1500, 0) for i in range(8)]
        self.ppdus = self.collided = self.delivered_bits = 0

    def build_ampdu(self, mac):
        self.ppdus += 1
        return aggregate(self.mpdus, mac.pick_mcs(0), mac.bandwidth)

    def on_resolution(self, ampdu, bitmap):
        if bitmap is None:
            self.collided += 1
        else:
            self.delivered_bits += 8 * sum(m.payload for m in ampdu.mpdus)
        ampdu.mac.medium.contend(ampdu.mac)


@pytest.mark.parametrize("n", [2, 10, 30])
def test_saturated_dcf_matches_bianchi(n):
    # a collided sender rejoins ACK_TIMEOUT_US after its PPDU, the others
    # after DIFS, so the simulated p sits slightly below the model's
    sim = Simulator(seed=n)
    medium = Medium(sim, phy.LinkSpec(5.5, 80), 0)
    owners = [SaturatedOwner(d) for d in range(1, n + 1)]
    for d, owner in enumerate(owners, 1):
        mac = LinkMac(sim, medium, d, owner, fixed_mcs=11)
        mac.add_peer(0, 100.0)  # no noise errors at MCS 11
        medium.contend(mac)
    duration_us = 5_000_000
    sim.run_until(duration_us)
    p_sim = sum(o.collided for o in owners) / sum(o.ppdus for o in owners)
    s_sim = sum(o.delivered_bits for o in owners) / duration_us
    p_model, s_model = bianchi(n, phy.tx_duration(12_000, MCS11_80, 80), 96_000)
    assert abs(p_sim - p_model) <= 0.05
    assert abs(s_sim - s_model) <= 0.05 * s_model
