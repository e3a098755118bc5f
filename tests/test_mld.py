import math

import pytest
from hypothesis import given, settings, strategies as st

from mlosim import mld, phy
from mlosim.engine import Simulator
from mlosim.mac import BLOCK_ACK_US, DIFS_US, RETRY_LIMIT, SIFS_US, LinkMac, Medium
from mlosim.mld import (
    LOST,
    CongestionEstimate,
    MldDevice,
    check_link_count,
    split_uniform,
    split_weighted,
)
from mlosim.scenario import ScenarioConfig
from mlosim.traffic import UNSET, AppFrame, default_stream_set
from test_mac import bianchi

DL, UL = default_stream_set()[:2]
MCS11_80 = phy.MCS_TABLE[11]


class FixedRng:
    def __init__(self, values):
        self.values = list(values)

    def randrange(self, n):
        v = self.values.pop(0)
        self.values.append(v)  # cycle
        return v


def dl_frame(size, station=1, index=0, t=0):
    return AppFrame(stream=DL, station=station, index=index,
                    arrival_time=t, size=size)


def make_device(policy, n_links=2, link_mcs=None, backoffs=(0,), **kwargs):
    """link_mcs: the fixed MCS of each link, default 11 on every link."""
    sim = Simulator(seed=3)
    media = [Medium(sim, phy.LinkSpec(phy.CARRIERS_GHZ[j], 80), j) for j in range(n_links)]
    dev = MldDevice(sim, 0, policy, **kwargs)
    for j, med in enumerate(media):
        mac = LinkMac(sim, med, 0, dev, fixed_mcs=link_mcs[j] if link_mcs else 11)
        mac.add_peer(1, 100.0)  # dl_frame's default station
        mac.backoff_rng = FixedRng(backoffs)
        dev.add_mac(mac)
    return sim, media, dev


def spy_transmissions(sim, dev):
    sent = []
    orig = dev.build_ampdu

    def wrapper(mac):
        ampdu = orig(mac)
        sent.append((sim.now, mac.medium.index, len(ampdu.mpdus)))
        return ampdu

    dev.build_ampdu = wrapper
    return sent


# -- policy arithmetic ---------------------------------------------------

def test_policy_names_and_aliases():
    # the five names are the only spellings: an alias is an unknown policy
    assert mld.POLICIES == ("sl", "greedy", "uniform", "congestion", "condition")
    for name in ("round_robin", "single_link", "congestion_aware", "condition_aware"):
        with pytest.raises(ValueError, match="policy must be one of"):
            ScenarioConfig(policy=name)


def test_split_uniform_cases():
    assert split_uniform(14, 2) == [7, 7]
    assert split_uniform(5, 2) == [3, 2]
    assert split_uniform(1, 4) == [1, 0, 0, 0]
    assert split_uniform(10, 4) == [3, 3, 3, 1]


@given(st.integers(1, 500), st.integers(1, 8))
@settings(max_examples=300)
def test_split_uniform_exact_sum(n, i):
    counts = split_uniform(n, i)
    assert sum(counts) == n
    assert len(counts) == i
    assert all(c >= 0 for c in counts)
    assert max(counts) == -(-n // i)


def test_split_weighted_free_time_ratio():
    assert split_weighted(10, [300_000, 200_000]) == [6, 4]


def test_split_weighted_condition_formula():
    # free 0.3 s x 100 Mb/s and 0.4 s x 50 Mb/s
    assert split_weighted(10, [0.3 * 100, 0.4 * 50]) == [6, 4]


def test_split_weighted_zero_weight_link_excluded():
    assert split_weighted(10, [0.5, 0.0]) == [10, 0]


def test_split_weighted_equal_reduces_to_uniform():
    assert split_weighted(14, [1.0, 1.0]) == [7, 7]


def test_split_weighted_all_zero_falls_back_to_uniform():
    assert split_weighted(10, [0.0, 0.0, 0.0]) == [4, 4, 2]


@given(
    st.integers(0, 400),
    st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=6),
)
@settings(max_examples=300)
def test_split_weighted_exact_sum_and_monotone(n, weights):
    counts = split_weighted(n, weights)
    assert sum(counts) == n
    if sum(weights) > 0:
        top = max(range(len(weights)), key=lambda j: weights[j])
        if all(weights[top] > w for j, w in enumerate(weights) if j != top):
            assert counts[top] == max(counts)


# -- congestion estimator --------------------------------------------------

def test_estimator_constant_window():
    est = CongestionEstimate()
    for _ in range(10):
        est.update(100_000)
    assert est.busy_ma_us == 100_000
    assert est.free_time_us() == 400_000


def test_estimator_partial_window():
    est = CongestionEstimate()
    est.update(50_000)
    assert est.busy_ma_us == 50_000


def test_estimator_converges_to_duty_cycle():
    est = CongestionEstimate()
    for _ in range(10):
        est.update(200_000)  # 40% of 0.5 s
    assert abs(est.busy_ma_us - 200_000) / 200_000 < 0.10
    assert len(est.samples) == 10


def test_estimator_window_evicts_oldest():
    est = CongestionEstimate()
    for _ in range(10):
        est.update(0)
    for _ in range(10):
        est.update(300_000)
    assert est.busy_ma_us == 300_000


def test_estimator_rejects_busy_beyond_period():
    est = CongestionEstimate()
    with pytest.raises(ValueError):
        est.update(500_001)


def test_empty_estimator_reports_full_free_time():
    est = CongestionEstimate()
    assert est.free_time_us() == 500_000


# -- device behavior -------------------------------------------------------

def test_sl_requires_single_link():
    with pytest.raises(ValueError, match="sl requires exactly 1 link"):
        check_link_count("sl", 2)
    with pytest.raises(ValueError, match="uniform requires at least 2 links"):
        check_link_count("uniform", 1)
    check_link_count("sl", 1)
    check_link_count("greedy", 4)


def test_uniform_presplits_across_links():
    sim, media, dev = make_device("uniform", n_links=2)
    dev.on_frame(dl_frame(21000))  # 14 MPDUs
    assert [len(q) for q in dev.queues.values()] == [7, 7]
    assert dev.pool == []


def test_greedy_leaves_pool_shared():
    sim, media, dev = make_device("greedy", n_links=2)
    dev.on_frame(dl_frame(21000))
    assert all(q is dev.pool for q in dev.queues.values())
    assert len(dev.pool) == 14


def test_congestion_allocation_follows_free_time():
    sim, media, dev = make_device("congestion", n_links=2)
    for _ in range(10):
        dev.estimators[0].update(200_000)  # free 0.3 s
        dev.estimators[1].update(300_000)  # free 0.2 s
    dev.on_frame(dl_frame(15000, index=0))  # 10 MPDUs
    assert [len(q) for q in dev.queues.values()] == [6, 4]


def test_condition_allocation_weighs_data_rate():
    # MCS 7 on link 0 (344 Mb/s at 80 MHz), MCS 4 on link 1 (206.4 Mb/s)
    sim, media, dev = make_device("condition", n_links=2, link_mcs=(7, 4))
    dev.on_frame(dl_frame(15000))  # equal free time; 10 MPDUs
    assert [len(q) for q in dev.queues.values()] == [6, 4]


def test_condition_equal_rates_reduces_to_congestion():
    sim, media, dev = make_device("condition", n_links=2)
    for _ in range(10):
        dev.estimators[0].update(200_000)
        dev.estimators[1].update(300_000)
    dev.on_frame(dl_frame(15000))
    assert [len(q) for q in dev.queues.values()] == [6, 4]


def test_greedy_single_access_for_one_frame():
    sim, media, dev = make_device("greedy", n_links=2)
    sent = spy_transmissions(sim, dev)
    frame = dl_frame(21000)
    dev.on_frame(frame)
    sim.run_until(100_000)
    assert len(sent) == 1 and sent[0][2] == 14
    dur = phy.tx_duration(21000, MCS11_80, 80)
    assert frame.delay_us == DIFS_US + dur + SIFS_US + BLOCK_ACK_US


def test_delay_recorded_at_blockack_completion():
    sim, media, dev = make_device("sl", n_links=1, backoffs=(5,))
    frame = dl_frame(21000)
    dev.on_frame(frame)
    sim.run_until(100_000)
    dur = phy.tx_duration(21000, MCS11_80, 80)
    expected = DIFS_US + 5 * 9 + dur + SIFS_US + BLOCK_ACK_US
    assert frame.delay_us == expected


def test_sap_blocked_link_drain_and_restart_count():
    sim, media, dev = make_device("uniform", n_links=2)
    media[1].inject_busy(10**9)  # link B never goes idle
    sent = spy_transmissions(sim, dev)
    frame = dl_frame(96000)  # 64 MPDUs
    dev.on_frame(frame)
    sim.run_until(1_000_000)
    assert frame.delay_us not in (LOST, UNSET)
    assert [s[2] for s in sent] == [32, 16, 8, 4, 2, 1, 1]
    assert all(s[1] == 0 for s in sent)
    assert math.ceil(math.log2(64)) <= dev.restart_count <= math.ceil(math.log2(64)) + 2
    assert dev.mpdu_load == 0


def test_greedy_blocked_link_single_access():
    sim, media, dev = make_device("greedy", n_links=2)
    media[1].inject_busy(10**9)
    sent = spy_transmissions(sim, dev)
    frame = dl_frame(96000)
    dev.on_frame(frame)
    sim.run_until(1_000_000)
    assert [s[2] for s in sent] == [64]
    assert dev.restart_count == 0
    assert frame.delay_us not in (LOST, UNSET)


def test_sap_restart_preserves_sequence_order():
    sim, media, dev = make_device("uniform", n_links=2)
    media[1].inject_busy(10**9)
    dev.on_frame(dl_frame(21000))
    sim.run_until(2_000)  # partway through the drain
    q0, q1 = dev.queues.values()
    seqs = [m.seq for m in q0] + [m.seq for m in q1]
    assert q0 == sorted(q0, key=lambda m: m.seq)
    if q0 and q1:
        assert q0[-1].seq < q1[0].seq
    assert seqs == sorted(seqs)


def test_buffer_cap_drops_whole_frame_as_lost():
    sim, media, dev = make_device("greedy", n_links=2, buffer_cap=10)
    frame = dl_frame(21000)  # 14 MPDUs > 10
    dev.on_frame(frame)
    assert frame.delay_us is LOST
    assert dev.admission_drops == 1
    assert dev.mpdu_load == 0


def test_retry_exhaustion_records_lost():
    # two saturated devices on one medium with zero backoff collide forever
    sim = Simulator(seed=1)
    medium = Medium(sim, phy.LinkSpec(5.2, 80), 0)
    dev_a = MldDevice(sim, 0, "sl")
    dev_b = MldDevice(sim, 1, "sl")
    for dev in (dev_a, dev_b):
        mac = LinkMac(sim, medium, dev.device, dev, fixed_mcs=11)
        mac.backoff_rng = FixedRng([0])
        dev.add_mac(mac)
    frame_a, frame_b = dl_frame(1500, station=1), dl_frame(1500, station=2)
    dev_a.macs[0].add_peer(1, 100.0)
    dev_b.macs[0].add_peer(2, 100.0)
    dev_a.on_frame(frame_a)
    dev_b.on_frame(frame_b)
    sim.run_until(1_000_000)
    assert frame_a.delay_us is LOST
    assert frame_b.delay_us is LOST
    assert dev_a.mpdu_load == 0 and dev_b.mpdu_load == 0


def test_sibling_delivered_after_retry_exhaustion_keeps_frame_lost(monkeypatch):
    recorded = []

    def record(frame, delay):
        recorded.append(frame)
        real_record(frame, delay)

    real_record = mld.record
    monkeypatch.setattr(mld, "record", record)
    sim, media, dev = make_device("sl", n_links=1)
    mac = dev.macs[0]
    frame = dl_frame(6000)  # 4 MPDUs
    dev.on_frame(frame)
    dev.pool[0].retries = dev.pool[1].retries = RETRY_LIMIT
    first = dev.build_ampdu(mac)
    assert len(first.mpdus) == 4
    # fragments 0 and 1 exhaust their retries, 2 and 3 are requeued
    dev.on_resolution(first, [False] * 4)
    assert frame.delay_us is LOST
    retry = dev.build_ampdu(mac)
    assert [m.index for m in retry.mpdus] == [2, 3]
    dev.on_resolution(retry, [True, True])  # siblings arrive after all
    assert frame.delay_us is LOST
    assert recorded == [frame]
    assert dev.mpdu_load == 0


def test_conservation_across_allocation_and_restart():
    sim, media, dev = make_device("uniform", n_links=2)
    frames = [dl_frame(21000, index=k, t=0) for k in range(6)]
    for frame in frames:
        dev.on_frame(frame)

    def in_system():
        q = len(dev.pool) + sum(len(queue) for queue in dev.queues.values())
        q += sum(len(m.in_flight.mpdus) for m in dev.macs if m.in_flight)
        return q

    checks = []
    for t in range(0, 20_000, 500):
        sim.schedule(t, lambda: checks.append((in_system(), dev.mpdu_load)))
    sim.run_until(200_000)
    assert all(queued == load for queued, load in checks)
    assert dev.mpdu_load == 0
    assert all(f.delay_us not in (LOST, UNSET) for f in frames)


def fresh_counts(dev, n):
    """The split of n pooled MPDUs computed from scratch for dev's policy."""
    if dev.shares is mld.SHARE_RULES["uniform"]:
        return split_uniform(n, len(dev.macs))
    free = [est.free_time_us() for est in dev.estimators]
    if dev.shares is mld.SHARE_RULES["condition"]:
        dest = dev.pool[0].dst
        free = [f * mac.decided_rate(dest) for f, mac in zip(free, dev.macs)]
    return split_weighted(n, free)


SPLIT_OPS = st.lists(st.one_of(
    st.tuples(st.just("frame"), st.integers(1, 2), st.integers(1, 20_000)),
    st.tuples(st.just("run"), st.integers(1, 8_000)),
    st.tuples(st.just("busy"), st.integers(0, 2), st.integers(1, 6_000)),
), min_size=1, max_size=40)


@given(st.sampled_from(["uniform", "congestion", "condition"]), st.integers(2, 3),
       st.floats(12.0, 20.0), SPLIT_OPS)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_split_memo_applies_fresh_counts(policy, n_links, snr_db, ops):
    """Every split applies the counts a fresh apportionment gives for the
    current weights, while arrivals, resolutions with failed MPDUs,
    estimator ticks and rate records move them; the memo holds counts for
    the current weight vector only, at most one per pool size."""
    sim = Simulator(seed=5)
    media = [Medium(sim, phy.LinkSpec(phy.CARRIERS_GHZ[j], 40), j) for j in range(n_links)]
    dev = MldDevice(sim, 0, policy, buffer_cap=32, update_period_us=4_000, ma_window=3)
    for med in media:
        mac = LinkMac(sim, med, 0, dev)  # windowed rate selection
        for sta in (1, 2):
            mac.add_peer(sta, snr_db + 2 * sta)  # MCS 4 and up lose MPDUs to noise
        dev.add_mac(mac)

    def tick():
        dev.on_tick()
        sim.schedule(sim.now + 4_000, tick)

    sim.schedule(4_000, tick)
    real_split = dev._split
    splits = []

    def checked_split():
        n = len(dev.pool)
        expected = fresh_counts(dev, n)
        before = [len(q) for q in dev.queues.values()]
        real_split()
        assert [len(q) - b for q, b in zip(dev.queues.values(), before)] == expected
        assert len(dev._counts) <= dev.buffer_cap + 1
        for size, counts in dev._counts.items():
            uniform = dev._weights is None
            assert list(counts) == (split_uniform(size, n_links) if uniform
                                    else split_weighted(size, dev._weights))
        splits.append(n)

    dev._split = checked_split
    index = 0
    for op in ops:
        if op[0] == "frame":
            dev.on_frame(dl_frame(op[2], station=op[1], index=index, t=sim.now))
            index += 1
        elif op[0] == "run":
            sim.run_until(sim.now + op[1])
        else:
            media[op[1] % n_links].inject_busy(op[2])
    sim.run_until(sim.now + 50_000)
    assert dev.mpdu_load == sum(len(q) for q in dev.queues.values()) + sum(
        len(m.in_flight.mpdus) for m in dev.macs if m.in_flight)


def test_on_tick_feeds_estimators_from_medium():
    sim, media, dev = make_device("congestion", n_links=2)
    for t in range(0, 500_000, 100_000):
        sim.schedule(t, media[0].inject_busy, 40_000)  # 40% duty on link 0
    sim.schedule(500_000, dev.on_tick)
    sim.run_until(600_000)
    assert dev.estimators[0].busy_ma_us == 200_000
    assert dev.estimators[1].busy_ma_us == 0


@pytest.mark.parametrize("count_own_tx", [True, False])
def test_on_tick_own_airtime_follows_count_own_tx(count_own_tx):
    # the device's own PPDU on link 0 counts only with count_own_tx; the
    # BlockAck comes from station 1, which has no MAC here, so it is foreign
    sim, media, dev = make_device("congestion", n_links=2, count_own_tx=count_own_tx)
    for t in range(0, 500_000, 100_000):
        sim.schedule(t, media[0].inject_busy, 40_000)
    sim.schedule(250_000, dev.on_frame, dl_frame(1000, t=250_000))
    sim.schedule(500_000, dev.on_tick)
    sim.schedule(1_000_000, dev.on_tick)  # a period with no airtime at all
    sim.run_until(1_100_000)
    own = phy.tx_duration(1000, MCS11_80, 80) if count_own_tx else 0
    first = 200_000 + BLOCK_ACK_US + own
    assert media[0].busy_total(500_000) == 200_000 + BLOCK_ACK_US + phy.tx_duration(
        1000, MCS11_80, 80)
    assert list(dev.estimators[0].samples) == [first, 0]
    assert dev.estimators[0].sensed_us == first
    assert list(dev.estimators[1].samples) == [0, 0]


# -- saturated MLO against per-link Bianchi ----------------------------------

SATURATED_MPDUS = 3 * 64 * 2  # every link queue keeps a full A-MPDU


def run_saturated_mlo(policy, n, duration_us=5_000_000):
    """Delivered Mb/s of n devices on two 40 MHz links, each topped up
    with 96,000 B uplink frames (64 MPDUs) on every resolution."""
    sim = Simulator(seed=n)
    media = [Medium(sim, phy.LinkSpec(phy.CARRIERS_GHZ[j], 40), j) for j in range(2)]
    delivered = [0]

    def top_up(dev):
        while dev.mpdu_load < SATURATED_MPDUS:
            dev.on_frame(AppFrame(stream=UL, station=dev.device, index=0,
                                  arrival_time=sim.now, size=96_000))

    def saturated(dev):
        real_on_resolution = dev.on_resolution

        def on_resolution(ampdu, bitmap):
            if bitmap is not None:
                delivered[0] += sum(m.payload for m, ok in zip(ampdu.mpdus, bitmap) if ok)
            real_on_resolution(ampdu, bitmap)
            top_up(dev)

        dev.on_resolution = on_resolution
        return dev

    for d in range(1, n + 1):
        dev = saturated(MldDevice(sim, d, policy, buffer_cap=10**6))
        for med in media:
            mac = LinkMac(sim, med, d, dev, fixed_mcs=11)
            mac.add_peer(0, 100.0)  # no noise errors at MCS 11
            dev.add_mac(mac)
        top_up(dev)
    sim.run_until(duration_us)
    return 8 * delivered[0] / duration_us


@pytest.mark.parametrize("n", [2, 10])
def test_saturated_mlo_matches_per_link_bianchi(n, monkeypatch):
    # at saturation every link always has a full A-MPDU to send, so a
    # split only decides which queue holds which MPDU: every policy sends
    # greedy's PPDUs, and each link is a saturated DCF with n contenders
    ppdus = []  # (start, link, device, MPDU count)
    real_begin_tx = Medium.begin_tx

    def begin_tx(self, mac, ampdu):
        ppdus.append((self.sim.now, self.index, mac.device, len(ampdu.mpdus)))
        real_begin_tx(self, mac, ampdu)

    monkeypatch.setattr(Medium, "begin_tx", begin_tx)
    model = 2 * bianchi(n, phy.tx_duration(96_000, phy.MCS_TABLE[11], 40), 768_000)[1]
    greedy = None
    for policy in ("greedy", "uniform", "congestion", "condition"):
        ppdus.clear()
        s_sim = run_saturated_mlo(policy, n)
        assert abs(s_sim - model) <= 0.05 * model, policy
        assert {p[3] for p in ppdus} == {64}, policy
        if greedy is None:
            greedy = list(ppdus)
        assert ppdus == greedy, policy
