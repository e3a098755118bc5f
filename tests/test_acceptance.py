"""Acceptance suite: one test per package-level acceptance criterion.

Each test prints a single "criterion N (<label>): PASS <detail>" line
(visible with pytest -s); a failing criterion fails its test with the
same detail in the assertion message.

The capacity-ordering criteria (5, 6, 9) share one 10-seed module-scoped
sweep.  Each probe simulates MLOSIM_ACC_DURATION seconds of traffic,
8 s by default, so the whole sweep fits a single-core box in minutes;
MLOSIM_ACC_DURATION=50 runs the full-length probes sized for a
multi-core workstation.
"""
import json
import math
import os
import random
import statistics
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from mlosim import cli, phy
from mlosim.engine import Simulator, rng_stream
from mlosim.mac import BLOCK_ACK_US, DIFS_US, SIFS_US, SLOT_US, LinkMac, Medium
from mlosim.mld import LOST, CongestionEstimate, MldDevice, split_uniform, split_weighted
from mlosim.scenario import ScenarioConfig, run_one, run_seeds, seed_pool, streams_of
from mlosim.stats import all_pass, evaluate
from mlosim.traffic import UNSET, AppFrame, default_stream_set, sample_trunc_gauss
from test_mld import make_device, spy_transmissions
from test_traffic import sample_frame_size

DL, UL, POSE = default_stream_set()


def report(n: int, label: str, detail: str = ""):
    print(f"criterion {n} ({label}): PASS {detail}".rstrip())


# -- criterion 1 ------------------------------------------------------------

def test_criterion_1_traffic_fidelity():
    t0 = time.perf_counter()
    size_rng = rng_stream(0, "acceptance.dl.size")
    sizes = [sample_frame_size(DL, size_rng) for _ in range(100_000)]
    jitter_rng = rng_stream(0, "acceptance.dl.jitter")
    jitters = [sample_trunc_gauss(DL.jitter_model, jitter_rng)
               for _ in range(100_000)]
    elapsed = time.perf_counter() - t0

    mean_size = statistics.fmean(sizes)
    mean_jitter = statistics.fmean(jitters)
    assert abs(mean_size - 21000) <= 210, f"size mean {mean_size:.1f}"
    assert min(sizes) >= 10500 and max(sizes) <= 31500
    assert min(jitters) >= -4000 and max(jitters) <= 4000
    assert abs(mean_jitter) <= 100, f"jitter mean {mean_jitter:.1f} us"
    assert elapsed < 1.0, f"draws took {elapsed:.2f} s"
    report(1, "traffic fidelity",
           f"size mean {mean_size:.0f} B, jitter mean {mean_jitter:.1f} us, "
           f"2x10^5 draws in {elapsed:.2f} s")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_policy_arithmetic():
    assert split_uniform(14, 2) == [7, 7]
    assert split_weighted(10, [300_000, 200_000]) == [6, 4]
    assert split_weighted(10, [0.3 * 100, 0.4 * 50]) == [6, 4]

    rnd = random.Random(20240817)
    for _ in range(10_000):
        i = rnd.randint(1, 8)
        n = rnd.randint(0, 500)
        counts = split_uniform(n, i)
        assert sum(counts) == n and len(counts) == i and min(counts) >= 0
        weights = [rnd.random() * rnd.choice((0, 1, 10)) for _ in range(i)]
        counts = split_weighted(n, weights)
        assert sum(counts) == n and len(counts) == i and min(counts) >= 0
    report(2, "policy arithmetic", "exact splits, 10^4 randomized cases")


# -- criterion 3 --------------------------------------------------------------

def test_criterion_3_estimator_convergence():
    sim = Simulator(seed=2)
    medium = Medium(sim, phy.LinkSpec(5.2, 80), 0)
    est = CongestionEstimate()
    dev = MldDevice(sim, 0, "congestion", [est])
    dev.add_mac(LinkMac(sim, medium, 0, dev, fixed_mcs=11))
    for k in range(10):  # one 200 ms foreign pulse per 500 ms period
        sim.schedule(k * 500_000, medium.inject_busy, 200_000)
        sim.schedule((k + 1) * 500_000, lambda: est.sample(medium.busy_total(sim.now)))
    sim.run_until(5_100_000)
    ma = dev.estimators[0].busy_ma_us
    assert abs(ma - 200_000) <= 20_000, f"busy MA {ma} us after 10 periods"
    report(3, "estimator convergence",
           f"40% duty -> busy MA {ma} us per 0.5 s period")


# -- criterion 4 --------------------------------------------------------------

def test_criterion_4_blocked_link_drain():
    def drain(policy):
        sim, media, dev = make_device(policy)
        media[1].inject_busy(10**9)  # link B held busy forever
        sent = spy_transmissions(sim, dev)
        frame = AppFrame(stream=DL, station=1, index=0,
                         arrival_time=0, size=96_000)  # 64 MPDUs
        dev.on_frame(frame)
        sim.run_until(1_000_000)
        assert frame.delay_us not in (LOST, UNSET)
        assert dev.mpdu_load == 0
        assert all(link == 0 for _, link, _ in sent)
        return [count for _, _, count in sent], dev.restart_count

    lo = math.ceil(math.log2(64))
    accesses, restarts = drain("uniform")
    assert sum(accesses) == 64
    assert lo <= restarts <= lo + 2, f"uniform restarts {restarts}"
    greedy_accesses, greedy_restarts = drain("greedy")
    assert greedy_accesses == [64] and greedy_restarts == 0
    report(4, "blocked-link drain",
           f"uniform {len(accesses)} accesses, {restarts} restarts; "
           f"greedy 1 access of 64")


# -- criteria 5/6/9: shared capacity sweep ---------------------------------------

MLO_POLICIES = ("greedy", "uniform", "congestion", "condition")


@pytest.fixture(scope="module")
def sweep():
    duration = float(os.environ.get("MLOSIM_ACC_DURATION", "8"))
    seeds = tuple(range(10))
    workers = os.cpu_count() or 1

    def config(policy, links, n=1):
        return ScenarioConfig(policy=policy, links=links,
                              n_sta=n, sim_duration_s=duration, seeds=seeds)

    def probe(policy, links, n):
        cfg = config(policy, links, n)
        return evaluate(run_seeds(cfg, workers=workers), streams_of(cfg))

    t0 = time.perf_counter()
    # each search opens and closes a seed pool of its own; this one serves
    # the probes after them
    with seed_pool(workers) as pool:
        searches = {}
        for policy, links in (("uniform", "2x40"), ("congestion", "2x40"),
                              ("condition", "2x40"), ("sl", "80"), ("sl", "160")):
            searches[(policy, links)] = cli.capacity_search(
                config(policy, links), max_n=30, workers=workers)

        # a policy passing at station count n has capacity >= n, so orderings
        # against a searched capacity need one probe, not a second search
        probes = {}
        sap_cap = max(searches[(p, "2x40")].max_sta
                      for p in ("uniform", "congestion", "condition"))
        if sap_cap >= 1:
            probes[("greedy", "2x40", sap_cap)] = probe("greedy", "2x40", sap_cap)
        beat_sl80 = searches[("sl", "80")].max_sta + 1
        probes[("greedy", "4x20", beat_sl80)] = probe("greedy", "4x20", beat_sl80)
        sl160_cap = searches[("sl", "160")].max_sta
        if sl160_cap >= 1:
            # independent probes: each one's seeds queue behind the last's
            pool.prefetch(*(config(p, "2x80", sl160_cap) for p in MLO_POLICIES))
            for policy in MLO_POLICIES:
                probes[(policy, "2x80", sl160_cap)] = probe(policy, "2x80", sl160_cap)
    return SimpleNamespace(duration=duration, seeds=seeds, searches=searches,
                           probes=probes, sap_cap=sap_cap,
                           sl80_cap=searches[("sl", "80")].max_sta,
                           sl160_cap=sl160_cap,
                           elapsed=time.perf_counter() - t0)


@pytest.mark.slow
def test_criterion_5_capacity_orderings(sweep):
    caps = {key: res.max_sta for key, res in sweep.searches.items()}

    if sweep.sap_cap >= 1:
        greedy_ok = all_pass(sweep.probes[("greedy", "2x40", sweep.sap_cap)])
        assert greedy_ok, (
            f"greedy 2x40 fails at n={sweep.sap_cap} while a split policy "
            f"passes there ({caps})")

    mlo_cap_floor = sweep.sl80_cap + 1
    assert all_pass(sweep.probes[("greedy", "4x20", mlo_cap_floor)]), (
        f"greedy 4x20 fails at n={mlo_cap_floor}, not above "
        f"sl 80 capacity {sweep.sl80_cap}")

    weak = [p for p in MLO_POLICIES
            if sweep.sl160_cap >= 1
            and not all_pass(sweep.probes[(p, "2x80", sweep.sl160_cap)])]
    assert not weak, (
        f"2x80 policies below sl 160 capacity {sweep.sl160_cap}: {weak}")

    report(5, "capacity orderings",
           f"greedy(2x40) >= {sweep.sap_cap} >= split policies "
           f"{[caps[(p, '2x40')] for p in ('uniform', 'congestion', 'condition')]}; "
           f"greedy(4x20) >= {mlo_cap_floor} > sl(80) = {sweep.sl80_cap}; "
           f"all 2x80 >= sl(160) = {sweep.sl160_cap} "
           f"[{sweep.duration:.0f}s probes, {len(sweep.seeds)} seeds]")


@pytest.mark.slow
def test_criterion_6_dl_stream_fails_first(sweep):
    for (policy, links), res in sweep.searches.items():
        n, verdicts = res.per_n[-1]
        assert not all_pass(verdicts) and n == res.max_sta + 1, (policy, links)
        dl = next(v for v in verdicts if v.stream == "dl_video")
        assert not dl.passed, (
            f"{policy} {links} fails at n={n} without the DL stream failing")
    report(6, "DL dominance",
           f"DL video is the failing stream at capacity+1 in all "
           f"{len(sweep.searches)} searches")


# -- criterion 7 --------------------------------------------------------------

def test_criterion_7_single_transmitter_closed_form():
    horizon_us = 5_000_000
    seed = 4
    cfg = ScenarioConfig(policy="sl", links="80", n_sta=1,
                         sim_duration_s=horizon_us / 1e6,
                         activation_window_s=0.0, seeds=(seed,),
                         traffic={"enabled": ["ul_video"]},
                         fixed_mcs=7)
    rows = run_one(cfg, seed)
    by_index = {r.frame_index: r.delay_us for r in rows}
    assert all(r.stream == "ul_video" for r in rows)

    # trace oracle: replay the labeled size/backoff streams and assemble
    # each frame's delay from first principles
    size_rng = rng_stream(seed, "traffic.sta1.ul_video.size")
    backoff_rng = rng_stream(seed, "mac.backoff.dev1.link0")
    rate_mbps = 86.0 * 4  # MCS 7 at 80 MHz
    k = 0
    while k * UL.periodicity_us < horizon_us:
        size = sample_frame_size(UL, size_rng)
        backoff = backoff_rng.randint(0, 15)
        airtime = 44 + math.ceil(size * 8 / rate_mbps)
        expected = DIFS_US + backoff * SLOT_US + airtime + SIFS_US + BLOCK_ACK_US
        assert by_index[k] == expected, (
            f"frame {k}: simulated {by_index[k]} us, closed form {expected} us")
        k += 1
    assert len(by_index) == k
    report(7, "single-transmitter closed form",
           f"{k} frames match the per-frame delay formula exactly")


# -- criterion 8 ---------------------------------------------------------------

def test_criterion_8_byte_identical_reruns(tmp_path):
    config = {"policy": "greedy", "links": "2x40", "n_sta": 2,
              "sim_duration_s": 2.0, "activation_window_s": 0.1,
              "seeds": [0, 1]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["run", "--config", str(path), "--out", str(out),
                         "--workers", "1"])
        assert code == 0
        outs.append(out)
    names = ("delays.csv", "ccdf_dl_video.csv", "ccdf_ul_video.csv",
             "ccdf_pose.csv", "summary.txt")
    for name in names:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report(8, "determinism", f"{len(names)} output files byte-identical on rerun")


# -- criterion 9 ----------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_runtime_budget(sweep):
    cfg = ScenarioConfig(policy="greedy", links="2x40", n_sta=6,
                         sim_duration_s=50.0, seeds=(0,))
    t0 = time.perf_counter()
    rows = run_one(cfg, 0)
    single = time.perf_counter() - t0
    assert rows
    assert single < 60.0, f"50 s 6-station run took {single:.1f} s"
    assert sweep.elapsed < 1800.0, (
        f"capacity sweep took {sweep.elapsed:.0f} s at "
        f"{sweep.duration:.0f} s probe duration")
    report(9, "runtime budget",
           f"50 s 6-station run in {single:.1f} s; ordering sweep in "
           f"{sweep.elapsed:.0f} s ({sweep.duration:.0f} s probes)")
