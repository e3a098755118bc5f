import hashlib
import math
import pickle
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mlosim import scenario
from mlosim.engine import Simulator
from mlosim.mac import Medium
from mlosim.scenario import (
    Deployment,
    Experiment,
    ScenarioConfig,
    deploy,
    equivalent_single_link,
    expand_links,
    run_one,
    run_seeds,
    streams_of,
)
from mlosim.mld import POLICIES
from mlosim.stats import evaluate, format_records, all_pass


def cfg_with(**kwargs):
    defaults = dict(policy="greedy", links="2x40", n_sta=1,
                    sim_duration_s=2.0, seeds=(1,))
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


# -- link sets ---------------------------------------------------------------

def test_expand_links_shorthands():
    links = expand_links("2x40")
    assert [l.bandwidth_mhz for l in links] == [40, 40]
    assert [l.carrier_ghz for l in links] == [5.2, 5.5]
    links = expand_links("4x20")
    assert [l.carrier_ghz for l in links] == [5.2, 5.5, 6.1, 6.5]
    assert [l.bandwidth_mhz for l in expand_links("160")] == [160]


def test_equivalent_single_link_total_bandwidth():
    assert equivalent_single_link("2x40") == "80"
    assert equivalent_single_link("4x20") == "80"
    assert equivalent_single_link("2x80") == "160"
    assert equivalent_single_link("160") == "160"


# -- config validation ---------------------------------------------------------

def test_sl_with_two_links_rejected():
    with pytest.raises(ValueError, match="sl requires exactly 1 link"):
        cfg_with(policy="sl")


def test_mlo_with_one_link_rejected():
    with pytest.raises(ValueError):
        cfg_with(policy="uniform", links="80")


def test_nonstandard_link_set_rejected():
    with pytest.raises(ValueError, match="links must be one of"):
        cfg_with(links="40+80")


def test_bad_counts_rejected():
    with pytest.raises(ValueError):
        cfg_with(n_sta=0)
    with pytest.raises(ValueError):
        cfg_with(seeds=())
    with pytest.raises(ValueError):
        cfg_with(sim_duration_s=0.5)  # shorter than activation window


def test_horizon_rounds_to_the_nearest_microsecond():
    assert cfg_with(sim_duration_s=2.01).horizon_us == 2_010_000  # 2.01e6 is 2009999.99...


def test_activation_window_rounds_to_the_nearest_microsecond():
    cfg = cfg_with(sim_duration_s=5.0, activation_window_s=2.03)
    assert cfg.activation_window_us == 2_030_000


def test_update_period_rounds_to_the_nearest_microsecond():
    assert cfg_with(update_period_s=4.1).update_period_us == 4_100_000


def test_traffic_enabled_filter():
    cfg = cfg_with(traffic={"enabled": ["ul_video"]})
    streams = streams_of(cfg)
    assert [s.kind for s in streams] == ["ul_video"]
    with pytest.raises(ValueError):
        cfg_with(traffic={"enabled": []})


# -- deployment ------------------------------------------------------------------

def test_deploy_distances_within_cell():
    cfg = cfg_with(n_sta=10_000)
    dep = deploy(cfg, seed=0)
    dists = [math.hypot(x, y) for x, y in dep.positions]
    assert all(d <= 10.0 for d in dists)
    assert abs(statistics.fmean(dists) - 20 / 3) < 0.1


def test_deploy_activations_within_window():
    cfg = cfg_with(n_sta=10_000)
    dep = deploy(cfg, seed=3)
    assert all(0 <= a <= 1_000_000 for a in dep.activation_us)
    assert statistics.fmean(dep.activation_us) == pytest.approx(500_000, rel=0.05)


def test_deploy_single_station():
    dep = deploy(cfg_with(n_sta=1), seed=5)
    assert len(dep.positions) == 1 and len(dep.activation_us) == 1


def test_deploy_min_distance_floor():
    dep = Deployment(positions=[(0.0, 0.0)], activation_us=[0])
    assert dep.distance(0) == 1.0


# -- wiring ---------------------------------------------------------------------

def test_sl_wiring_counts():
    cfg = cfg_with(policy="sl", links="80", n_sta=6)
    exp = Experiment(cfg, seed=1)
    assert len(exp.devices) == 7
    assert all(len(d.macs) == 1 for d in exp.devices.values())
    assert len({id(m.medium) for d in exp.devices.values() for m in d.macs}) == 1
    per_sta_kinds = {(f.station, f.stream.kind) for f in exp.frames}
    assert len(per_sta_kinds) == 18  # 6 STAs x 3 streams


def test_mlo_wiring_counts():
    cfg = cfg_with(policy="condition", links="4x20", n_sta=2)
    exp = Experiment(cfg, seed=1)
    assert all(len(d.macs) == 4 for d in exp.devices.values())
    carriers = [m.medium.link.carrier_ghz for m in exp.devices[0].macs]
    assert carriers == [5.2, 5.5, 6.1, 6.5]


@pytest.mark.parametrize("policy", POLICIES)
def test_link_contends_exactly_while_its_queue_holds_mpdus(policy):
    # stressed: ten stations, short update period, so shares restart often
    links = "80" if policy == "sl" else "2x40"
    cfg = cfg_with(policy=policy, links=links, n_sta=10, sim_duration_s=0.5,
                   activation_window_s=0.1, update_period_s=0.1)
    exp = Experiment(cfg, seed=0)
    checks = []

    def check():
        for dev in exp.devices.values():
            for mac, queue in dev.queues.items():
                if mac in mac.medium.contenders:
                    assert queue and mac.in_flight is None
                else:
                    assert not queue or mac.in_flight is not None
            # conservation: every admitted MPDU is queued once or in flight
            distinct = {id(q): q for q in (dev.pool, *dev.queues.values())}
            held = sum(len(q) for q in distinct.values())
            held += sum(len(m.in_flight.mpdus) for m in dev.macs if m.in_flight)
            assert held == dev.mpdu_load
        checks.append(exp.sim.now)
        exp.sim.schedule(exp.sim.now + 97, check)

    exp.sim.schedule(0, check)
    exp.run()
    assert len(checks) > 5000


def test_snr_symmetry_and_coverage():
    cfg = cfg_with(n_sta=3)
    exp = Experiment(cfg, seed=2)
    for j in range(len(exp.media)):
        ap = exp.devices[0].macs[j]
        for sta in (1, 2, 3):
            assert ap.peers[sta].snr_db == exp.devices[sta].macs[j].peers[0].snr_db
            assert ap.peers[sta].snr_db > 25  # in-cell stations decode high MCS


@pytest.mark.parametrize("policy", POLICIES)
def test_one_estimator_per_link_shared_by_every_device(policy):
    links = "80" if policy == "sl" else "2x40"
    cfg = cfg_with(policy=policy, links=links, n_sta=3, sim_duration_s=1.0,
                   activation_window_s=0.1, update_period_s=0.1, ma_window=20)
    exp = Experiment(cfg, seed=4)
    assert len(exp.estimators) == len(exp.media)
    assert all(dev.estimators is exp.estimators for dev in exp.devices.values())
    exp.run()
    ticks = cfg.horizon_us // cfg.update_period_us
    assert all(len(est.samples) == ticks for est in exp.estimators)


def test_frames_phase_shifted_by_activation():
    cfg = cfg_with(n_sta=4, sim_duration_s=3.0)
    exp = Experiment(cfg, seed=7)
    for sta in range(1, 5):
        act = exp.deployment.activation_us[sta - 1]
        mine = [f for f in exp.frames if f.station == sta]
        assert min(f.arrival_time for f in mine) >= act
        # pose frames are not jittered: each arrives when it is generated
        pose_times = sorted(f.arrival_time for f in mine if f.stream.kind == "pose")
        assert pose_times[0] == act
        assert pose_times[1] - pose_times[0] == 4000
        assert all(act + f.index * f.stream.periodicity_us < cfg.horizon_us for f in mine)


# -- running -----------------------------------------------------------------------

# Events of one 1 s seed (seed 700, activation window 0.1 s): dispatched
# (run_until's count), schedule and cancel calls from the experiment's
# build on, restart_count summed over devices, and the sha256 of every
# Medium.begin_tx call, one "now,link index,sender device,MPDU count" line
# per call.  The last pins the order of same-instant PPDU starts, which no
# output digest sees.  A change that adds or drops an event or reorders a
# PPDU start re-pins these on purpose.
PINNED_EVENTS = [
    ("sl", "80", 8, 11650, 16851, 5200, 0,
     "672fa9eab7758274f04eb9a90877409caba6a1c0998435fdfe3fad1fc34dbd5b"),
    ("greedy", "2x40", 8, 11382, 14331, 2947, 0,
     "3dd1ba2d2fba5098d7f91c507095b708e9337bafb3ec3b9f77a91bcfe0d68bd1"),
    ("uniform", "4x20", 8, 23504, 31493, 7988, 3751,
     "4062ddcf8c7dca7f51c827e0b9af106caaffb5119759d77a78e11e11b3b7c577"),
    ("congestion", "2x40", 8, 17377, 23228, 5850, 1773,
     "994563fabe06bc69d0d2ca3820ec512a039a43784a66ba3b05d79f270854f951"),
    ("condition", "2x40", 8, 16215, 20012, 3795, 1334,
     "1ac20b17ca02b57cf59055a535aada3e256481ef5e33fb7c919f8a9a4af3df97"),
    # overload: more cancels than dispatches
    ("greedy", "2x40", 16, 18777, 52328, 33548, 0,
     "e2367547929cd4525ef87f8daa1a15a42c560f7aa4733a8dd430ef3923c4bfad"),
    ("congestion", "2x40", 16, 26371, 84521, 58134, 5694,
     "7326974438de906a76415c04b9ef92751741b00c0985a24f91067e33dca962a8"),
]


@pytest.mark.parametrize(
    "policy,links,n,dispatched,scheduled,cancelled,restarts,starts_sha256",
    PINNED_EVENTS,
    ids=[f"{p}-{l}" + ("" if n == 8 else f"-n{n}") for p, l, n, *_ in PINNED_EVENTS])
def test_event_counts_are_pinned(policy, links, n, dispatched, scheduled, cancelled,
                                 restarts, starts_sha256, monkeypatch):
    calls = {"schedule": 0, "cancel": 0}
    starts = []
    real_schedule, real_cancel = Simulator.schedule, Simulator.cancel
    real_begin_tx = Medium.begin_tx

    def schedule(self, at, fn, *args):
        calls["schedule"] += 1
        return real_schedule(self, at, fn, *args)

    def cancel(self, handle):
        calls["cancel"] += 1
        return real_cancel(self, handle)

    def begin_tx(self, mac, ampdu):
        starts.append(f"{self.sim.now},{self.index},{mac.device},{len(ampdu.mpdus)}\n")
        return real_begin_tx(self, mac, ampdu)

    monkeypatch.setattr(Simulator, "schedule", schedule)
    monkeypatch.setattr(Simulator, "cancel", cancel)
    monkeypatch.setattr(Medium, "begin_tx", begin_tx)
    cfg = cfg_with(policy=policy, links=links, n_sta=n, sim_duration_s=1.0,
                   activation_window_s=0.1, seeds=(700,))
    exp = Experiment(cfg, 700)
    assert exp.sim.run_until(cfg.horizon_us) == dispatched
    assert (calls["schedule"], calls["cancel"]) == (scheduled, cancelled)
    assert sum(d.restart_count for d in exp.devices.values()) == restarts
    assert hashlib.sha256("".join(starts).encode()).hexdigest() == starts_sha256


def test_single_sta_underloaded_run_passes():
    cfg = cfg_with(n_sta=1, sim_duration_s=3.0)
    rows = run_one(cfg, seed=1)
    exp_frames = Experiment(cfg, seed=1).frames
    assert len(rows) == len(exp_frames)
    verdicts = evaluate(rows, streams_of(cfg))
    assert all_pass(verdicts)
    finite = [r.delay_us for r in rows if r.delay_us is not None]
    assert len(finite) >= 0.99 * len(rows)
    assert statistics.fmean(finite) < 3000


def test_every_frame_recorded_exactly_once():
    cfg = cfg_with(policy="uniform", n_sta=2, sim_duration_s=2.0)
    rows = run_one(cfg, seed=4)
    keys = [(r.station, r.stream, r.frame_index) for r in rows]
    assert len(keys) == len(set(keys))
    assert len(rows) == len(Experiment(cfg, seed=4).frames)


def test_determinism_same_seed_byte_identical():
    cfg = cfg_with(policy="congestion", n_sta=2, sim_duration_s=2.0)
    a = "".join(format_records(run_one(cfg, seed=9)))
    b = "".join(format_records(run_one(cfg, seed=9)))
    assert a == b


def test_distinct_seeds_differ():
    cfg = cfg_with(n_sta=1, sim_duration_s=2.0)
    assert "".join(format_records(run_one(cfg, 1))) != "".join(format_records(run_one(cfg, 2)))


def test_run_seeds_merges_in_seed_order():
    cfg = cfg_with(n_sta=1, sim_duration_s=1.0, activation_window_s=0.2,
                   seeds=(5, 3))
    rows = run_seeds(cfg)
    seeds_seen = [r.seed for r in rows]
    assert set(seeds_seen) == {3, 5}
    assert seeds_seen == sorted(seeds_seen, key=lambda s: (5, 3).index(s))
    first = run_one(cfg, 5)
    assert list(rows)[:len(first)] == list(first)


def test_run_seeds_parallel_equals_serial():
    cfg = cfg_with(n_sta=1, sim_duration_s=1.0, activation_window_s=0.2,
                   seeds=(1, 2))
    assert run_seeds(cfg, workers=2) == run_seeds(cfg, workers=1)


def test_run_seeds_pool_capped_at_seed_count(monkeypatch):
    # the pool forks all its workers at the first submit: a fake records
    # max_workers and runs the tasks in this process, starting none
    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(scenario, "ProcessPoolExecutor", FakePool)
    cfg = cfg_with(n_sta=1, sim_duration_s=1.0, activation_window_s=0.2,
                   seeds=(1, 2))
    assert run_seeds(cfg, workers=200) == run_seeds(cfg, workers=1)
    run_seeds(replace(cfg, seeds=(1, 2, 3)), workers=2)
    assert seen == [2, 2]


def test_seed_result_pickles_compactly():
    # one array of 8-byte delays per (station, stream): about 8 B per frame
    cfg = cfg_with(policy="sl", links="80", n_sta=6, sim_duration_s=3.0)
    result = run_one(cfg, 0)
    assert len(result) >= 1000
    assert len(pickle.dumps(result)) <= 10 * len(result)


def test_overload_marks_frames_lost():
    # three stations of DL video cannot fit through MCS0 at 80 MHz
    cfg = cfg_with(policy="sl", links="80", n_sta=3,
                   sim_duration_s=2.0, fixed_mcs=0)
    rows = run_one(cfg, seed=1)
    lost = [r for r in rows if r.delay_us is None]
    assert lost, "expected saturation losses"
    verdicts = evaluate(rows, streams_of(cfg))
    assert not all_pass(verdicts)



@given(st.integers(1, 14), st.integers(0, 10_000), st.floats(1.0, 3.0))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
def test_greedy_with_its_second_link_blocked_is_sl(n_sta, seed, duration_s):
    """Greedy on 2x80 with link 1 held busy from the start runs sl on 80:
    link 0 has the carrier and bandwidth of 80, link 1 never grants, its
    MACs draw only from their own RNG labels, and greedy's link-0 queue is
    the pool.  A greedy-only path touching link 0 breaks the equality."""
    sl_cfg = cfg_with(policy="sl", links="80", n_sta=n_sta,
                      sim_duration_s=duration_s, activation_window_s=0.1,
                      seeds=(seed,))
    greedy_cfg = replace(sl_cfg, policy="greedy", links="2x80")
    sl, greedy = Experiment(sl_cfg, seed), Experiment(greedy_cfg, seed)
    greedy.media[1].inject_busy(10**12)
    assert "".join(format_records(greedy.run())) == "".join(format_records(sl.run()))
    assert [d.restart_count for d in (*sl.devices.values(), *greedy.devices.values())] \
        == [0] * (2 * n_sta + 2)
    horizon = sl_cfg.horizon_us
    assert greedy.media[0].busy_total(horizon) == sl.media[0].busy_total(horizon)
