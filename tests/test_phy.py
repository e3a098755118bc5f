import math

import pytest
from hypothesis import given, settings, strategies as st

from mlosim.engine import rng_stream
from mlosim.phy import (
    BANDWIDTHS_MHZ,
    CARRIERS_GHZ,
    MCS_TABLE,
    PREAMBLE_US,
    LinkSpec,
    McsEntry,
    RateSelector,
    error_probability,
    max_feasible_index,
    path_loss,
    snr,
    tx_duration,
)

RATE_100 = McsEntry(0, "synthetic", 25.0, 0.0)  # 100 Mb/s at 80 MHz


def test_path_loss_1m_5ghz_band():
    assert path_loss(1, 5.5) == pytest.approx(47.2550, abs=1e-3)


def test_path_loss_monotone_in_distance():
    assert path_loss(10, 5.5) > path_loss(5, 5.5) > path_loss(1, 5.5)


def test_path_loss_monotone_in_carrier():
    assert path_loss(7, 6.5) > path_loss(7, 5.2)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss(0, 5.5)


def test_breakpoint_continuity():
    eps = 1e-9
    assert path_loss(5 + eps, 5.5) == pytest.approx(path_loss(5, 5.5), abs=1e-6)


def test_snr_10m_80mhz():
    assert snr(LinkSpec(5.5, 80), 10) == pytest.approx(36.1986, abs=1e-3)


def test_bandwidth_doubling_costs_3db():
    lo = snr(LinkSpec(5.5, 40), 10)
    hi = snr(LinkSpec(5.5, 80), 10)
    assert lo - hi == pytest.approx(10 * math.log10(2), abs=1e-9)


def test_snr_decreasing_in_distance():
    link = LinkSpec(5.5, 80)
    vals = [snr(link, d) for d in (1, 3, 5, 8, 12, 20)]
    assert vals == sorted(vals, reverse=True)


def test_tx_duration_21000B_at_100mbps():
    assert tx_duration(21000, RATE_100, 80) == 1724


def test_tx_duration_zero_payload_is_preamble():
    assert tx_duration(0, RATE_100, 80) == PREAMBLE_US


def test_tx_duration_decreasing_in_mcs():
    durs = [tx_duration(10_000, e, 80) for e in MCS_TABLE]
    assert durs == sorted(durs, reverse=True)


@given(st.integers(1, 30_000), st.integers(1, 30_000))
@settings(max_examples=100)
def test_tx_duration_subadditive(a, b):
    mcs = MCS_TABLE[4]
    assert tx_duration(a + b, mcs, 80) <= tx_duration(a, mcs, 80) + tx_duration(b, mcs, 80) - PREAMBLE_US


def test_mcs_table_monotone_and_scaling():
    rates = [e.rate_20mhz for e in MCS_TABLE]
    snrs = [e.min_snr_db for e in MCS_TABLE]
    assert rates == sorted(rates) and len(set(rates)) == len(rates)
    assert snrs == sorted(snrs) and len(set(snrs)) == len(snrs)
    for e in MCS_TABLE:
        assert e.data_rate(40) == 2 * e.data_rate(20)
        assert e.data_rate(80) == 2 * e.data_rate(40)
        assert e.data_rate(160) == 2 * e.data_rate(80)


def test_error_probability_ramp():
    e = MCS_TABLE[5]  # min_snr 18
    assert error_probability(e, e.min_snr_db + 10) == 0.0
    assert error_probability(e, e.min_snr_db - 10) == 1.0
    assert error_probability(e, e.min_snr_db) == 0.5
    assert error_probability(e, e.min_snr_db + 1) == 0.25
    assert error_probability(e, e.min_snr_db - 1) == 0.75


def test_in_cell_stations_reach_mcs7_error_free():
    for bw in BANDWIDTHS_MHZ:
        for carrier in CARRIERS_GHZ:
            s = snr(LinkSpec(carrier, bw), 10)
            clean = [e.index for e in MCS_TABLE if error_probability(e, s) == 0.0]
            assert max(clean) >= 7


def test_max_feasible_index_tracks_snr():
    assert max_feasible_index(100.0) == 11
    assert max_feasible_index(snr(LinkSpec(6.5, 160), 10)) == 9
    assert max_feasible_index(-50.0) == 0


def test_fresh_selector_starts_at_initial_index():
    sel = RateSelector(80, 100.0)
    assert sel.decided_rate() == MCS_TABLE[4].data_rate(80)
    rng = rng_stream(0, "phy.rate.dev1.link0")
    picks = {sel.select(rng).index for _ in range(200)}
    assert 4 in picks  # exploit steps
    assert len(picks) > 1  # probe steps reach other indexes


def test_all_success_history_exploits_highest_rate():
    sel = RateSelector(80, 100.0)
    for e in MCS_TABLE:
        for _ in range(5):
            sel.record(e.index, 1.0)
    assert sel.decided_rate() == MCS_TABLE[11].data_rate(80)


def test_failing_mcs_avoided_when_alternative_succeeds():
    sel = RateSelector(80, 100.0)
    for _ in range(25):
        sel.record(11, 0.0)
        sel.record(7, 1.0)
    assert sel.decided_rate() == MCS_TABLE[7].data_rate(80)


def test_estimate_uses_exactly_last_window():
    sel = RateSelector(80, 100.0)
    for _ in range(25):
        sel.record(4, 0.0)
    for _ in range(25):
        sel.record(4, 1.0)  # pushes the zeros out
    assert sel.estimate(4) == pytest.approx(MCS_TABLE[4].data_rate(80))
    sel.record(4, 0.0)
    assert sel.estimate(4) == pytest.approx(MCS_TABLE[4].data_rate(80) * 24 / 25)


def test_estimate_replay_matches_recorded_sequence():
    rng = rng_stream(7, "replay")
    sel = RateSelector(160, 100.0)
    outcomes = [rng.random() for _ in range(40)]
    for x in outcomes:
        sel.record(9, x)
    tail = outcomes[-25:]
    expect = MCS_TABLE[9].data_rate(160) * sum(tail) / len(tail)
    assert sel.estimate(9) == pytest.approx(expect)


def test_probe_fraction_near_ten_percent():
    sel = RateSelector(80, 100.0)
    sel.record(4, 1.0)
    rng = rng_stream(3, "phy.rate.dev2.link1")
    n = 20_000
    probes = sum(sel.select(rng).index != 4 for _ in range(n))
    assert abs(probes / n - 0.1) < 0.01


def test_selector_respects_feasibility_limit():
    s = snr(LinkSpec(6.5, 160), 10)  # feasible up to index 9
    sel = RateSelector(160, snr_db=s)
    rng = rng_stream(1, "phy.rate.dev3.link0")
    assert all(sel.select(rng).index <= 9 for _ in range(500))


class NoDrawRng:
    def random(self):
        raise AssertionError("fixed-rate selection drew randomness")

    randrange = random


@pytest.mark.parametrize("snr_db", [100.0, 20.0])  # MCS 11 infeasible at 20 dB
def test_fixed_mcs_selector_never_draws(snr_db):
    sel = RateSelector(80, snr_db, fixed_mcs=11)
    assert error_probability(MCS_TABLE[11], 20.0) == 1.0
    for outcome in (None, 0.0, 1.0, 0.0):
        if outcome is not None:
            sel.record(11, outcome)
        assert sel.select(NoDrawRng()) is MCS_TABLE[11]
        assert sel.decided_rate() == MCS_TABLE[11].data_rate(80)


def rescan_best(sel):
    """Brute force: highest estimate among feasible indexes with history,
    ties to the lower index, initial_index while none has history."""
    best, best_est = sel.initial_index, None
    for i in sel.feasible:
        if sel.windows[i] and (best_est is None or sel.estimate(i) > best_est):
            best, best_est = i, sel.estimate(i)
    return best


# 17.2 x 0.5 == 8.6 x 1.0 == 34.4 x 0.25: exact ties between MCS 0, 1 and 3
FRACTIONS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
# half the records land on three indexes, so their windows overflow
INDEXES = st.integers(0, 11) | st.integers(0, 3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([100.0, 30.0, 20.0, 8.0]),  # feasible up to 11, 9, 6, 2
       st.none() | st.integers(0, 11),
       st.lists(st.tuples(INDEXES, FRACTIONS), max_size=250))
def test_decided_rate_matches_rescan_after_every_record(snr_db, fixed_mcs, records):
    # MCS rates strictly increase with the index, so equal rates mean equal indexes
    sel = RateSelector(20, snr_db, fixed_mcs)
    feasible_rates = [MCS_TABLE[i].data_rate(20) for i in sel.feasible]
    assert sel.decided_rate() == MCS_TABLE[rescan_best(sel)].data_rate(20)
    for index, fraction in records:
        sel.record(index, fraction)
        assert sel.decided_rate() == MCS_TABLE[rescan_best(sel)].data_rate(20)
        assert sel.decided_rate() in feasible_rates


def test_decided_rate_follows_one_record():
    sel = RateSelector(40, 100.0)
    sel.record(6, 1.0)
    assert sel.decided_rate() == pytest.approx(MCS_TABLE[6].data_rate(40))


def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec(5.5, 30)
