import pytest
from hypothesis import given, settings, strategies as st

from mlosim.stats import (
    LOST,
    DelayRecord,
    all_pass,
    evaluate,
    export_ccdf,
    format_ccdf,
    format_records,
    format_summary,
    frame_rows,
    parse_records,
    percentile,
    record,
    verdict,
)
from mlosim.traffic import UNSET, AppFrame, default_stream_set


def rec(station, stream, idx, delay, seed=1):
    return DelayRecord(seed, station, stream, idx, delay)


# -- percentile ------------------------------------------------------------

def test_percentile_nearest_rank_basic():
    samples = [i * 1000 for i in range(1, 101)]  # 1..100 ms
    assert percentile(samples, 0.99) == 99_000


def test_percentile_single_sample():
    assert percentile([5000], 0.99) == 5000


def test_percentile_one_lost_among_hundred():
    samples = [i * 1000 for i in range(1, 100)] + [None]
    assert percentile(samples, 0.99) == 99_000  # largest finite


def test_percentile_two_lost_among_hundred():
    samples = [i * 1000 for i in range(1, 99)] + [None, None]
    assert percentile(samples, 0.99) is LOST


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 0.99)


def test_percentile_p_validation():
    with pytest.raises(ValueError):
        percentile([1], 0.0)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_percentile_p1_is_max():
    assert percentile([3, 1, 2], 1.0) == 3


@given(st.lists(st.integers(0, 10**7), min_size=1, max_size=400),
       st.floats(0.01, 1.0))
@settings(max_examples=200)
def test_percentile_matches_naive_nearest_rank(samples, p):
    import fractions
    got = percentile(samples, p)
    # integer-exact reference rank
    rank = -((-fractions.Fraction(p).limit_denominator(10**9) * len(samples)) // 1)
    assert got == sorted(samples)[int(rank) - 1]


def test_percentile_order_insensitive():
    import random
    samples = [i for i in range(200)] + [None] * 3
    shuffled = samples[:]
    random.Random(0).shuffle(shuffled)
    assert percentile(samples, 0.99) == percentile(shuffled, 0.99)


# -- verdicts ----------------------------------------------------------------

def test_verdict_all_fast_passes():
    records = [rec(s, "dl_video", i, 1000) for s in (1, 2) for i in range(100)]
    v = verdict(records, "dl_video", 10_000)
    assert v.passed and v.worst_p99_us == 1000


def test_verdict_strict_boundary():
    records = [rec(1, "dl_video", i, 10_001) for i in range(10)]
    assert not verdict(records, "dl_video", 10_000).passed
    records = [rec(1, "dl_video", i, 10_000) for i in range(10)]
    assert verdict(records, "dl_video", 10_000).passed


def test_verdict_takes_worst_station():
    records = [rec(1, "dl_video", i, 1000) for i in range(100)]
    records += [rec(2, "dl_video", i, 20_000) for i in range(100)]
    v = verdict(records, "dl_video", 10_000)
    assert v.worst_p99_us == 20_000 and not v.passed
    assert v.station_p99 == {1: 1000, 2: 20_000}


def test_verdict_merges_seeds_per_station():
    records = [rec(1, "dl_video", i, 1000, seed=1) for i in range(99)]
    records += [rec(1, "dl_video", i, 50_000, seed=2) for i in range(1)]
    v = verdict(records, "dl_video", 10_000)
    # pooled: 100 samples, p99 rank 99 -> 1000
    assert v.worst_p99_us == 1000 and v.passed


def test_system_fails_if_any_stream_fails():
    streams = default_stream_set()
    records = []
    for s in streams:
        delay = 25_000 if s.kind == "ul_video" else 11_000
        records += [rec(1, s.kind, i, delay) for i in range(10)]
    verdicts = evaluate(records, streams)
    by_kind = {v.stream: v for v in verdicts}
    assert by_kind["ul_video"].passed  # 25 ms <= 30 ms
    assert not by_kind["dl_video"].passed  # 11 ms > 10 ms
    assert not by_kind["pose"].passed  # 11 ms > 10 ms
    assert not all_pass(verdicts)


def test_lost_frames_fail_verdict():
    records = [rec(1, "pose", i, 100) for i in range(97)]
    records += [rec(1, "pose", 97 + i, None) for i in range(3)]
    v = verdict(records, "pose", 10_000)
    assert v.worst_p99_us is LOST and not v.passed


# -- ccdf ----------------------------------------------------------------------

def test_ccdf_quarters():
    records = [rec(1, "dl_video", i, d) for i, d in enumerate((1000, 2000, 3000, 4000))]
    rows = export_ccdf(records, "dl_video")
    assert rows[0] == (1000, 0.75)
    assert rows[-1] == (4000, 0.0)


def test_ccdf_all_equal_single_row():
    records = [rec(1, "pose", i, 500) for i in range(10)]
    assert export_ccdf(records, "pose") == [(500, 0.0)]


def test_ccdf_monotone_bounded():
    import random
    rng = random.Random(1)
    records = [rec(1, "pose", i, rng.randrange(10_000)) for i in range(500)]
    rows = export_ccdf(records, "pose")
    vals = [c for _, c in rows]
    assert all(0.0 <= c <= 1.0 for c in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    delays = [d for d, _ in rows]
    assert delays == sorted(set(delays))


def test_ccdf_lost_residual_floor():
    records = [rec(1, "pose", i, 100) for i in range(90)]
    records += [rec(1, "pose", 90 + i, None) for i in range(10)]
    rows = export_ccdf(records, "pose")
    assert rows == [(100, 0.10)]


def test_ccdf_consistent_with_verdict_at_pdb():
    # pass <=> pooled CCDF at PDB <= 0.01 (single station case)
    records = [rec(1, "dl_video", i, 1000 if i < 99 else 12_000) for i in range(100)]
    v = verdict(records, "dl_video", 10_000)
    rows = export_ccdf(records, "dl_video")
    ccdf_at_pdb = min((c for d, c in rows if d <= 10_000), default=1.0)
    assert v.passed == (ccdf_at_pdb <= 0.01)


# -- frame outcomes and formats ------------------------------------------------

def frame(station, kind_index=0, index=0):
    return AppFrame(stream=default_stream_set()[kind_index], station=station,
                    index=index, gen_time=0, arrival_time=0, size=1500)


def test_collector_guards_double_record():
    f = frame(1)
    assert f.delay_us == UNSET
    record(f, 1000)
    assert f.delay_us == 1000
    with pytest.raises(RuntimeError, match="recorded twice"):
        record(f, 2000)
    lost = frame(2)
    record(lost, LOST)
    with pytest.raises(RuntimeError, match="recorded twice"):
        record(lost, LOST)
    assert (f.delay_us, lost.delay_us) == (1000, LOST)


def test_collector_rows_sorted_and_tagged():
    frames = [frame(2, 0, 1), frame(1, 2, 0), frame(1, 0, 0), frame(1, 1, 4)]
    record(frames[0], 5)
    record(frames[1], LOST)
    record(frames[2], 7)  # frames[3] never gets an outcome
    rows = frame_rows(frames, seed=9)
    assert [(r.station, r.stream, r.frame_index, r.delay_us) for r in rows] == [
        (1, "dl_video", 0, 7), (1, "pose", 0, None), (1, "ul_video", 4, None),
        (2, "dl_video", 1, 5)]
    assert all(r.seed == 9 for r in rows)


def test_records_roundtrip():
    records = [rec(1, "dl_video", 0, 1234), rec(1, "pose", 3, None), rec(2, "ul_video", 7, 99)]
    text = format_records(records)
    assert text.splitlines()[0] == "seed,station,stream,frame_index,delay_us"
    assert "1,1,pose,3,LOST" in text
    assert parse_records(text) == records


def test_format_ccdf_and_summary_shape():
    rows = [(100, 0.5), (200, 0.0)]
    assert format_ccdf(rows) == "delay_us,ccdf\n100,0.5\n200,0\n"
    records = [rec(1, k, i, 100) for k in ("dl_video", "ul_video", "pose") for i in range(5)]
    text = format_summary(evaluate(records, default_stream_set()))
    assert "stream=dl_video worst_p99_us=100 pdb_us=10000 verdict=PASS" in text
    assert text.strip().endswith("overall=PASS")
