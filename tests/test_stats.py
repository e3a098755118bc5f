import pytest
from hypothesis import given, settings, strategies as st

from mlosim.stats import (
    LOST,
    DelayRecord,
    Outcomes,
    all_pass,
    evaluate,
    export_ccdf,
    format_ccdf,
    format_delay,
    format_records,
    format_summary,
    parse_records,
    percentile,
    record,
    seed_outcomes,
    verdict,
)
from mlosim.traffic import UNSET, AppFrame, default_stream_set


def rec(station, stream, idx, delay, seed=1):
    return DelayRecord(seed, station, stream, idx, delay)


def outcomes(rows) -> Outcomes:
    """Rows regrouped into blocks; each block's frame indexes run 0, 1, ..."""
    out = Outcomes()
    out.extend(rows)
    return out


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
    v = verdict(outcomes(records), "dl_video", 10_000)
    assert v.passed and v.worst_p99_us == 1000


def test_verdict_strict_boundary():
    records = [rec(1, "dl_video", i, 10_001) for i in range(10)]
    assert not verdict(outcomes(records), "dl_video", 10_000).passed
    records = [rec(1, "dl_video", i, 10_000) for i in range(10)]
    assert verdict(outcomes(records), "dl_video", 10_000).passed


def test_verdict_takes_worst_station():
    records = [rec(1, "dl_video", i, 1000) for i in range(100)]
    records += [rec(2, "dl_video", i, 20_000) for i in range(100)]
    v = verdict(outcomes(records), "dl_video", 10_000)
    assert v.worst_p99_us == 20_000 and not v.passed
    assert v.station_p99 == {1: 1000, 2: 20_000}


def test_verdict_merges_seeds_per_station():
    records = [rec(1, "dl_video", i, 1000, seed=1) for i in range(99)]
    records += [rec(1, "dl_video", i, 50_000, seed=2) for i in range(1)]
    v = verdict(outcomes(records), "dl_video", 10_000)
    # pooled: 100 samples, p99 rank 99 -> 1000
    assert v.worst_p99_us == 1000 and v.passed


def test_system_fails_if_any_stream_fails():
    streams = default_stream_set()
    records = []
    for s in streams:
        delay = 25_000 if s.kind == "ul_video" else 11_000
        records += [rec(1, s.kind, i, delay) for i in range(10)]
    verdicts = evaluate(outcomes(records), streams)
    by_kind = {v.stream: v for v in verdicts}
    assert by_kind["ul_video"].passed  # 25 ms <= 30 ms
    assert not by_kind["dl_video"].passed  # 11 ms > 10 ms
    assert not by_kind["pose"].passed  # 11 ms > 10 ms
    assert not all_pass(verdicts)


def test_lost_frames_fail_verdict():
    records = [rec(1, "pose", i, 100) for i in range(97)]
    records += [rec(1, "pose", 97 + i, None) for i in range(3)]
    v = verdict(outcomes(records), "pose", 10_000)
    assert v.worst_p99_us is LOST and not v.passed


# -- ccdf ----------------------------------------------------------------------

def test_ccdf_quarters():
    records = [rec(1, "dl_video", i, d) for i, d in enumerate((1000, 2000, 3000, 4000))]
    rows = export_ccdf(outcomes(records), "dl_video")
    assert rows[0] == (1000, 0.75)
    assert rows[-1] == (4000, 0.0)


def test_ccdf_all_equal_single_row():
    records = [rec(1, "pose", i, 500) for i in range(10)]
    assert export_ccdf(outcomes(records), "pose") == [(500, 0.0)]


def test_ccdf_monotone_bounded():
    import random
    rng = random.Random(1)
    records = [rec(1, "pose", i, rng.randrange(10_000)) for i in range(500)]
    rows = export_ccdf(outcomes(records), "pose")
    vals = [c for _, c in rows]
    assert all(0.0 <= c <= 1.0 for c in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    delays = [d for d, _ in rows]
    assert delays == sorted(set(delays))


def test_ccdf_lost_residual_floor():
    records = [rec(1, "pose", i, 100) for i in range(90)]
    records += [rec(1, "pose", 90 + i, None) for i in range(10)]
    rows = export_ccdf(outcomes(records), "pose")
    assert rows == [(100, 0.10)]


def test_ccdf_consistent_with_verdict_at_pdb():
    # pass <=> pooled CCDF at PDB <= 0.01 (single station case)
    records = [rec(1, "dl_video", i, 1000 if i < 99 else 12_000) for i in range(100)]
    v = verdict(outcomes(records), "dl_video", 10_000)
    rows = export_ccdf(outcomes(records), "dl_video")
    ccdf_at_pdb = min((c for d, c in rows if d <= 10_000), default=1.0)
    assert v.passed == (ccdf_at_pdb <= 0.01)


# -- frame outcomes and formats ------------------------------------------------

def frame(station, kind_index=0, index=0):
    return AppFrame(stream=default_stream_set()[kind_index], station=station,
                    index=index, arrival_time=0, size=1500)


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
    chains = {(2, "dl_video"): [frame(2, 0, 0), frame(2, 0, 1)],
              (1, "pose"): [frame(1, 2, 0)],
              (1, "dl_video"): [frame(1, 0, 0)],
              (1, "ul_video"): [frame(1, 1, i) for i in range(2)]}
    record(chains[2, "dl_video"][1], 5)
    record(chains[1, "pose"][0], LOST)
    record(chains[1, "dl_video"][0], 7)  # the rest never get an outcome
    result = seed_outcomes(9, chains)
    assert list(result.blocks) == [(9, 1, "dl_video"), (9, 1, "pose"),
                                   (9, 1, "ul_video"), (9, 2, "dl_video")]
    assert [(r.station, r.stream, r.frame_index, r.delay_us) for r in result] == [
        (1, "dl_video", 0, 7), (1, "pose", 0, None), (1, "ul_video", 0, None),
        (1, "ul_video", 1, None), (2, "dl_video", 0, None), (2, "dl_video", 1, 5)]
    assert all(r.seed == 9 for r in result) and len(result) == 6


def test_records_roundtrip():
    records = [rec(1, "dl_video", 0, 1234), rec(1, "pose", 0, 3), rec(1, "pose", 1, None),
               rec(2, "ul_video", 0, 99)]
    text = "".join(format_records(outcomes(records)))
    assert text.splitlines()[0] == "seed,station,stream,frame_index,delay_us"
    assert "1,1,pose,1,LOST" in text
    assert parse_records(text) == outcomes(records)
    assert list(parse_records(text)) == records


KINDS = ("dl_video", "ul_video", "pose")
blocks_st = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 4), st.sampled_from(KINDS),
              st.lists(st.none() | st.integers(0, 30_000), min_size=1, max_size=25)),
    min_size=1, max_size=8, unique_by=lambda b: b[:3])


@given(blocks_st, st.data())
@settings(max_examples=150, deadline=None)
def test_one_csv_format(blocks, data):
    rows = [rec(sta, kind, i, d, seed=seed)
            for seed, sta, kind, delays in blocks for i, d in enumerate(delays)]
    result = outcomes(rows)
    lines = "".join(format_records(result)).splitlines(keepends=True)
    assert lines[1:] == [f"{r.seed},{r.station},{r.stream},{r.frame_index},"
                         f"{format_delay(r.delay_us)}\n" for r in rows]
    parsed = parse_records("".join(lines))
    assert parsed == result and list(parsed.blocks) == list(result.blocks)
    assert list(parsed) == rows and len(parsed) == len(rows)
    streams = [s for s in default_stream_set() if s.kind in {b[2] for b in blocks}]
    assert evaluate(parsed, streams) == evaluate(result, streams)
    for s in streams:
        # the columns agree with the rows, LOST as None
        delays = [r.delay_us for r in rows if r.stream == s.kind]
        naive = [(d, sum(x is None or x > d for x in delays) / len(delays))
                 for d in sorted({d for d in delays if d is not None})]
        assert export_ccdf(parsed, s.kind) == export_ccdf(result, s.kind) == naive
        v = verdict(result, s.kind, s.pdb_us)
        assert v.station_p99 == {sta: percentile([r.delay_us for r in rows if r.station == sta
                                                  and r.stream == s.kind], 0.99)
                                 for sta in sorted({r.station for r in rows if r.stream == s.kind})}

    # break one block's frame indexes: parse_records names the first bad line
    starts = [0]
    for *_, delays in blocks:
        starts.append(starts[-1] + len(delays))
    long = [(p, len(b[3])) for p, b in zip(starts, blocks) if len(b[3]) >= 2]
    if long:
        pos, k = data.draw(st.sampled_from(long))
        row = 1 + pos + data.draw(st.integers(0, k - 2))  # lines[0] is the header
        kind = data.draw(st.sampled_from(("gap", "repeat", "reorder")))
        if kind == "gap":
            del lines[row]
        elif kind == "repeat":
            lines.insert(row + 1, lines[row])
            row += 1
        else:
            lines[row], lines[row + 1] = lines[row + 1], lines[row]
        with pytest.raises(ValueError, match=f"^delays.csv line {row + 1}: frame index"):
            parse_records("".join(lines))


def test_parse_records_rejects_a_negative_delay():
    with pytest.raises(ValueError, match="^delays.csv line 3: negative delay -1"):
        parse_records("seed,station,stream,frame_index,delay_us\n1,1,pose,0,5\n1,1,pose,1,-1\n")


def test_format_ccdf_and_summary_shape():
    rows = [(100, 0.5), (200, 0.0)]
    assert format_ccdf(rows) == "delay_us,ccdf\n100,0.5\n200,0\n"
    records = [rec(1, k, i, 100) for k in ("dl_video", "ul_video", "pose") for i in range(5)]
    text = format_summary(evaluate(outcomes(records), default_stream_set()))
    assert "stream=dl_video worst_p99_us=100 pdb_us=10000 verdict=PASS" in text
    assert text.strip().endswith("overall=PASS")
