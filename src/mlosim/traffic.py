"""AR traffic generation: periodic DL/UL video and UL pose streams.

Each station runs three flows modeled on the 3GPP XR augmented-reality
profile: a downlink video stream (60 fps, truncated-Gaussian frame sizes,
network jitter on arrivals), an uplink video stream (60 fps, no jitter),
and a fixed-size uplink pose/control stream at 250 Hz.  Application frames
larger than the MPDU payload limit are fragmented before they reach the
MAC buffers.

Times are integer microseconds, sizes integer bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count

MPDU_PAYLOAD = 1500  # bytes

DL_VIDEO = "dl_video"
UL_VIDEO = "ul_video"
POSE = "pose"
TRAFFIC_KINDS = (DL_VIDEO, UL_VIDEO, POSE)

UNSET = -1  # AppFrame.delay_us until the frame has an outcome

AP_ID = 0  # device id of the access point; stations are 1..n


@dataclass(frozen=True)
class TruncGaussModel:
    """Gaussian conditioned on [min, max]; std 0 degenerates to the mean."""

    mean: float
    std: float
    min: float
    max: float

    def __post_init__(self):
        if not (self.min <= self.mean <= self.max):
            raise ValueError("mean outside [min, max]")
        if self.std < 0:
            raise ValueError("negative std")
        if self.std > 0:  # rejection sampling takes 1 / mass draws per value
            z = self.std * math.sqrt(2)
            mass = (math.erf((self.max - self.mean) / z) - math.erf((self.min - self.mean) / z)) / 2
            if mass < 1e-3:
                raise ValueError("[min, max] holds under 0.1% of the Gaussian's mass")


@dataclass(frozen=True)
class StreamConfig:
    kind: str
    periodicity_us: int
    pdb_us: int
    size_model: TruncGaussModel | int  # int means fixed bytes; mean * 8 / period is the rate
    jitter_model: TruncGaussModel | None = None  # in microseconds

    def __post_init__(self):
        # times live on the integer-microsecond clock, sizes in whole bytes
        for name in ("periodicity_us", "pdb_us"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        size = self.size_model
        if not isinstance(size, TruncGaussModel) and (type(size) is not int or size < 1):
            raise ValueError("a fixed size_model must be a positive integer")
        # arrivals are chained in frame order, so jitter must not reorder them
        jitter = self.jitter_model
        if jitter is not None and jitter.max - jitter.min >= self.periodicity_us:
            raise ValueError("jitter span must be below periodicity_us")

    @property
    def downlink(self):
        return self.kind == DL_VIDEO


@dataclass(eq=False, slots=True)
class AppFrame:
    """One application-layer frame (video frame or pose update).

    Identity semantics: frames are tracked as objects through the MAC, so
    equality is not structural.  The frame carries its own outcome:
    `delay_us` stays UNSET until stats.record sets a delay or LOST, and
    `mpdus_left` counts the admitted MPDUs not yet delivered.
    """

    stream: StreamConfig
    station: int
    index: int
    arrival_time: int
    size: int
    delay_us: int | None = UNSET
    mpdus_left: int = 0


@dataclass(eq=False, slots=True)
class Mpdu:
    frame: AppFrame
    payload: int
    dst: int  # receiving device: the station for downlink, else the AP
    retries: int = 0
    seq: int = -1  # assigned on buffer admission, orders the shared pool

    def __repr__(self):
        return f"Mpdu(sta={self.frame.station}, {self.frame.stream.kind}#{self.frame.index}, seq={self.seq})"


def default_stream_set() -> list[StreamConfig]:
    """The three per-station AR flows with their default parameters."""
    return [
        StreamConfig(
            kind=DL_VIDEO,
            periodicity_us=16667,
            pdb_us=10_000,
            size_model=TruncGaussModel(mean=21000, std=2205, min=10500, max=31500),
            jitter_model=TruncGaussModel(mean=0, std=2000, min=-4000, max=4000),
        ),
        StreamConfig(
            kind=UL_VIDEO,
            periodicity_us=16667,
            pdb_us=30_000,
            size_model=TruncGaussModel(mean=7000, std=735, min=3500, max=10500),
        ),
        StreamConfig(
            kind=POSE,
            periodicity_us=4000,
            pdb_us=10_000,
            size_model=100,
        ),
    ]


def sample_trunc_gauss(model: TruncGaussModel, rng: random.Random) -> float:
    """Draw from Gaussian(mean, std) conditioned on [min, max].

    Rejection keeps the conditioned shape rather than piling mass at the
    bounds the way clamping would.
    """
    if model.std == 0:
        return model.mean
    while True:
        x = rng.gauss(model.mean, model.std)
        if model.min <= x <= model.max:
            return x


def fragment(frame: AppFrame) -> list[Mpdu]:
    """Split a frame into <=1500 B MPDUs; only the last may run short."""
    dst = frame.station if frame.stream.downlink else AP_ID
    full, rest = divmod(frame.size, MPDU_PAYLOAD)
    # most frames (every pose update) fit one MPDU: no comprehension for them
    mpdus = [Mpdu(frame, MPDU_PAYLOAD, dst) for _ in range(full)] if full else []
    if rest:
        mpdus.append(Mpdu(frame, rest, dst))
    return mpdus


def generate_frames(cfg: StreamConfig, station: int, size_rng, jitter_rng,
                    start_us: int, horizon_us: int) -> list[AppFrame]:
    """All frames of one stream started at start_us: frame k is generated at
    start_us + k * periodicity_us < horizon_us and arrives jittered, >= start_us.

    size_rng draws every frame's size, then jitter_rng every frame's
    jitter, each in frame order; the two share no state, so the sequence
    depends only on the stream's RNG labels, not on event interleaving.
    """
    gens = range(start_us, horizon_us, cfg.periodicity_us)
    size = cfg.size_model
    sizes = [size] * len(gens) if isinstance(size, int) else [
        round(sample_trunc_gauss(size, size_rng)) for _ in gens]
    jitter = cfg.jitter_model
    arrivals = gens if jitter is None else [
        max(gen + round(sample_trunc_gauss(jitter, jitter_rng)), start_us) for gen in gens]
    return [AppFrame(cfg, station, k, arrival, size)
            for k, arrival, size in zip(count(), arrivals, sizes)]
