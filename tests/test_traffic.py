import math

import pytest
from hypothesis import given, settings, strategies as st

from mlosim.engine import rng_stream
from mlosim.scenario import ScenarioConfig, streams_of
from mlosim.traffic import (
    AppFrame,
    StreamConfig,
    TruncGaussModel,
    default_stream_set,
    fragment,
    generate_frames,
    sample_trunc_gauss,
)

DL_SIZE = TruncGaussModel(mean=21000, std=2205, min=10500, max=31500)
JITTER = TruncGaussModel(mean=0, std=2000, min=-4000, max=4000)


def _frame(size, stream=None, station=0, index=0, t=0):
    stream = stream or default_stream_set()[0]
    return AppFrame(stream=stream, station=station, index=index,
                    arrival_time=t, size=size)


def test_dl_size_draws_in_bounds_with_table_mean():
    rng = rng_stream(0, "traffic.sta0.dl_video.size")
    draws = [sample_trunc_gauss(DL_SIZE, rng) for _ in range(100_000)]
    assert all(10500 <= x <= 31500 for x in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 21000) / 21000 < 0.01


def test_degenerate_std_returns_mean():
    model = TruncGaussModel(mean=100, std=0, min=100, max=100)
    rng = rng_stream(0, "x")
    assert all(sample_trunc_gauss(model, rng) == 100 for _ in range(10))


@pytest.mark.parametrize("mean,std,lo,hi,ok", [
    (5, 3, 5, 5, False),  # sample_trunc_gauss would never return
    (0, 1, -1e-6, 1e-6, False),  # about 1.25M draws per value
    (5, 0, 5, 5, True),  # the degenerate mean
    (0, 1, -0.25, 0.25, True),  # 20% of the mass
])
def test_trunc_gauss_rejects_window_it_almost_never_reaches(mean, std, lo, hi, ok):
    if ok:
        TruncGaussModel(mean, std, lo, hi)
    else:
        with pytest.raises(ValueError, match="mass"):
            TruncGaussModel(mean, std, lo, hi)


def test_jitter_draws_centered_and_bounded():
    rng = rng_stream(1, "traffic.sta0.dl_video.jitter")
    draws = [sample_trunc_gauss(JITTER, rng) for _ in range(100_000)]
    assert all(-4000 <= x <= 4000 for x in draws)
    mean_ms = sum(draws) / len(draws) / 1000
    assert abs(mean_ms) < 0.1


def test_pose_arrival_is_exact_multiple():
    pose = default_stream_set()[2]
    frames = generate_frames(pose, 0, None, None, 0, 16_000)
    assert frames[3].arrival_time == 12_000


def test_dl_video_arrival_with_zero_jitter():
    dl = default_stream_set()[0]
    # zero-jitter variant isolates the nominal instant
    no_jitter = TruncGaussModel(mean=0, std=0, min=0, max=0)
    cfg = StreamConfig(kind="dl_video", periodicity_us=16667, pdb_us=10_000,
                       size_model=DL_SIZE, jitter_model=no_jitter)
    frames = generate_frames(cfg, 0, rng_stream(0, "s"), rng_stream(0, "j"), 0, 100_003)
    assert frames[6].arrival_time == 100_002
    assert dl.periodicity_us == 16667


def test_negative_jitter_at_k0_clamps_to_zero():
    always_neg = TruncGaussModel(mean=-4000, std=0, min=-4000, max=-4000)
    cfg = StreamConfig(kind="dl_video", periodicity_us=16667, pdb_us=10_000,
                       size_model=DL_SIZE, jitter_model=always_neg)
    frames = generate_frames(cfg, 0, rng_stream(0, "s"), rng_stream(0, "j"), 0, 16_668)
    assert [f.arrival_time for f in frames] == [0, 16_667 - 4000]


def test_fragment_mean_dl_frame():
    mpdus = fragment(_frame(21000))
    assert len(mpdus) == 14
    assert all(m.payload == 1500 for m in mpdus)


def test_fragment_pose_packet():
    mpdus = fragment(_frame(100))
    assert len(mpdus) == 1
    assert mpdus[0].payload == 100


def test_fragment_boundary():
    mpdus = fragment(_frame(1501))
    assert [m.payload for m in mpdus] == [1500, 1]


@given(st.integers(min_value=1, max_value=40_000))
@settings(max_examples=200)
def test_fragment_conserves_bytes(size):
    mpdus = fragment(_frame(size))
    assert sum(m.payload for m in mpdus) == size
    assert len(mpdus) == math.ceil(size / 1500)
    assert all(m.payload == 1500 for m in mpdus[:-1])
    assert [m.index for m in mpdus] == list(range(len(mpdus)))


def test_stream_set_composition():
    streams = default_stream_set()
    assert [s.kind for s in streams] == ["dl_video", "ul_video", "pose"]
    assert [s.pdb_us for s in streams] == [10_000, 30_000, 10_000]
    assert streams[0].jitter_model is not None
    assert streams[1].jitter_model is None
    assert streams[2].jitter_model is None


def test_offered_load_sums_to_13_5_mbps():
    # the profile's 10 + 3.3 + 0.2 Mb/s; a stream offers its mean size
    # every period: 21000 B and 7000 B per 16.667 ms, 100 B per 4 ms
    streams = default_stream_set()
    offered = [(s.size_model if isinstance(s.size_model, int) else s.size_model.mean)
               * 8 / s.periodicity_us for s in streams]
    assert offered == pytest.approx([10.0, 3.3, 0.2], rel=0.02)
    assert sum(offered) == pytest.approx(13.5, rel=0.02)


def test_stream_overrides_replace_fields():
    streams = streams_of(ScenarioConfig(traffic={"dl_video": {"pdb_us": 5000}}))
    assert streams[0].pdb_us == 5000
    assert streams[1].pdb_us == 30_000


def test_rate_consistency_over_50s():
    dl = default_stream_set()[0]
    size_rng = rng_stream(3, "traffic.sta0.dl_video.size")
    jit_rng = rng_stream(3, "traffic.sta0.dl_video.jitter")
    frames = generate_frames(dl, 0, size_rng, jit_rng, 0, 50_000_000)
    assert len(frames) == 3000
    total_bits = sum(f.size for f in frames) * 8
    assert abs(total_bits / 50e6 - 10.0) / 10.0 < 0.03


def test_generated_frame_counts_per_stream():
    counts = {}
    for cfg in default_stream_set():
        size_rng = rng_stream(0, f"traffic.sta0.{cfg.kind}.size")
        jit_rng = rng_stream(0, f"traffic.sta0.{cfg.kind}.jitter")
        counts[cfg.kind] = len(generate_frames(cfg, 0, size_rng, jit_rng, 0, 50_000_000))
    assert counts == {"dl_video": 3000, "ul_video": 3000, "pose": 12500}


def test_gen_times_are_exact_multiples_only_arrivals_jittered():
    dl = default_stream_set()[0]
    frames = generate_frames(dl, 0, rng_stream(9, "s"), rng_stream(9, "j"), 0, 1_000_000)
    # frame k is generated at k * 16667 us: one frame per multiple below 1 s
    assert [f.index for f in frames] == list(range(60))
    for f in frames:
        gen_time = f.index * 16667
        assert abs(f.arrival_time - gen_time) <= 4000 or f.arrival_time == 0
        assert f.arrival_time >= 0
        assert 10500 <= f.size <= 31500


def test_ul_streams_have_no_jitter_and_pose_fixed_size():
    ul, pose = default_stream_set()[1:]
    frames = generate_frames(ul, 2, rng_stream(0, "traffic.sta2.ul_video.size"), None, 0, 200_000)
    assert all(f.arrival_time == f.index * ul.periodicity_us for f in frames)
    pframes = generate_frames(pose, 2, None, None, 0, 200_000)
    assert all(f.size == 100 for f in pframes)
    assert [f.arrival_time for f in pframes] == [4000 * k for k in range(50)]


def sample_frame_size(cfg, rng):
    """One frame's size: the fixed size, or a rounded truncated-Gaussian draw."""
    if isinstance(cfg.size_model, int):
        return cfg.size_model
    return round(sample_trunc_gauss(cfg.size_model, rng))


def reference_frames(cfg, station, size_rng, jitter_rng, start_us, horizon_us):
    """generate_frames as one loop interleaving the size and jitter draws."""
    frames = []
    k = 0
    while True:
        gen = start_us + k * cfg.periodicity_us
        if gen >= horizon_us:
            break
        size = sample_frame_size(cfg, size_rng)
        arrival = gen
        if cfg.jitter_model is not None:
            arrival = max(gen + round(sample_trunc_gauss(cfg.jitter_model, jitter_rng)),
                          start_us)
        frames.append(AppFrame(stream=cfg, station=station, index=k,
                               arrival_time=arrival, size=size))
        k += 1
    return frames


@st.composite
def streams(draw):
    """A stream of any kind; a Gaussian model with std > 0 gets a window at
    least one std wide, so its rejection loop ends."""
    periodicity = draw(st.integers(500, 20_000))
    mean = draw(st.integers(1, 40_000))
    size = mean
    if draw(st.booleans()):
        std = draw(st.sampled_from([0, 1, 500, 5_000]))
        lo = draw(st.integers(max(1, mean - 2 * std), mean))
        size = TruncGaussModel(mean=mean, std=std, min=lo, max=max(lo + std, mean))
    kind = draw(st.sampled_from(["ul_video", "pose"]))
    jitter = None
    if draw(st.booleans()):
        kind = "dl_video"
        jstd = draw(st.sampled_from([0, 100, 2_000]))
        span = draw(st.integers(min(jstd, periodicity - 1), periodicity - 1))
        lo = draw(st.integers(-span, 0))  # a negative jitter clamps at start_us
        jmean = draw(st.integers(lo, lo + span))
        jitter = (TruncGaussModel(mean=jmean, std=0, min=jmean, max=jmean) if jstd == 0
                  else TruncGaussModel(mean=jmean, std=jstd, min=lo, max=lo + span))
    return StreamConfig(kind=kind, periodicity_us=periodicity, pdb_us=10_000,
                        size_model=size, jitter_model=jitter)


@given(streams(), st.integers(0, 200_000), st.integers(-20_000, 100_000), st.integers(0, 99))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_generate_frames_matches_interleaved_reference(cfg, start, length, seed):
    """Drawing sizes then jitters, each in frame order, gives the frames
    and RNG states of one loop that interleaves them; start >= horizon
    gives no frame."""
    horizon = start + length
    rngs = [rng_stream(seed, "s"), rng_stream(seed, "j")]
    ref_rngs = [rng_stream(seed, "s"), rng_stream(seed, "j")]
    frames = generate_frames(cfg, 3, *rngs, start, horizon)
    ref = reference_frames(cfg, 3, *ref_rngs, start, horizon)
    fields = ("stream", "station", "index", "arrival_time", "size",
              "delay_us", "mpdus_left")
    assert isinstance(frames, list)
    assert [[getattr(f, a) for a in fields] for f in frames] == \
        [[getattr(f, a) for a in fields] for f in ref]
    assert [type(f.size) for f in frames] == [type(f.size) for f in ref]
    assert [r.getstate() for r in rngs] == [r.getstate() for r in ref_rngs]
    if start >= horizon:
        assert frames == []


def test_stream_config_rejects_jitter_on_ul():
    with pytest.raises(ValueError):
        StreamConfig(kind="ul_video", periodicity_us=16667, pdb_us=30_000,
                     size_model=TruncGaussModel(7000, 735, 3500, 10500),
                     jitter_model=JITTER)


@pytest.mark.parametrize("periodicity_us,rejected", [(8000, True), (8001, False)])
def test_stream_config_jitter_span_below_periodicity(periodicity_us, rejected):
    # a span of a whole period or more lets frame k+1 arrive before frame k
    def build():
        return StreamConfig(kind="dl_video", periodicity_us=periodicity_us, pdb_us=10_000,
                            size_model=DL_SIZE, jitter_model=JITTER)
    if rejected:
        with pytest.raises(ValueError, match="jitter span"):
            build()
    else:
        assert build().periodicity_us == periodicity_us


def test_trunc_gauss_model_validation():
    with pytest.raises(ValueError):
        TruncGaussModel(mean=5, std=1, min=10, max=20)
    with pytest.raises(ValueError):
        TruncGaussModel(mean=15, std=-1, min=10, max=20)
