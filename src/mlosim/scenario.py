"""Single-cell experiment assembly: geometry, wiring, seed orchestration.

One AP (device 0) and n stations share every configured radio link.
Stations are dropped uniformly over a disk around the AP and activate at
independent uniform instants inside the activation window; each station's
three flows are phase-aligned to its activation, which staggers frame
arrivals across stations.  Each link MAC gets one rate selector per peer,
added here with the SNR from the station's distance to the AP.  A run
pre-generates all application frames (their randomness depends only on
the seed and the per-stream RNG labels), schedules their buffer
arrivals, runs the event loop to the horizon, and reads each frame's
outcome off the frame, unfinished frames as LOST.  A seed's result holds
one stats.Outcomes block of delays per (station, stream), ordered by
station, then stream name; run_seeds concatenates them in seed order.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace

from . import mld, phy
from .engine import US_PER_SEC, Simulator, rng_stream
from .mac import LinkMac, Medium
from .stats import Outcomes, seed_outcomes
from .traffic import (AP_ID, TRAFFIC_KINDS, StreamConfig, default_stream_set,
                      generate_frames)

log = logging.getLogger(__name__)

LINK_SETS = {
    "80": (80,),
    "160": (160,),
    "2x40": (40, 40),
    "4x20": (20, 20, 20, 20),
    "2x80": (80, 80),
}

MIN_LINK_DISTANCE_M = 1.0  # geometry floor; propagation is near-field below

# Value types each ScenarioConfig annotation accepts; a bool is no number.
_ANNOTATION_TYPES = {
    "int": ((int,), "an integer"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def check_choice(key: str, value, choices) -> None:
    """Raise ValueError naming key unless value is one of the choices."""
    if type(value) is not str or value not in choices:
        raise ValueError(f"{key} must be one of {', '.join(choices)}; got {value!r}")


def expand_links(name: str) -> tuple[phy.LinkSpec, ...]:
    """The links of a named set, on carriers 5.2/5.5/6.1/6.5 GHz in order."""
    return tuple(phy.LinkSpec(phy.CARRIERS_GHZ[i], bw)
                 for i, bw in enumerate(LINK_SETS[name]))


def equivalent_single_link(name: str) -> str:
    """The single-link set with the same total bandwidth as a link set."""
    return str(sum(LINK_SETS[name]))


@dataclass(frozen=True)
class ScenarioConfig:
    policy: str = mld.GREEDY
    links: str = "2x40"
    n_sta: int = 1
    cell_radius_m: float = 10.0
    sim_duration_s: float = 50.0
    activation_window_s: float = 1.0
    seeds: tuple = tuple(range(10))
    traffic: dict | None = None
    buffer_cap: int = mld.DEFAULT_BUFFER_CAP
    update_period_s: float = mld.DEFAULT_UPDATE_PERIOD_US / US_PER_SEC
    ma_window: int = mld.DEFAULT_MA_WINDOW
    fixed_mcs: int | None = None  # None: Minstrel rate control

    def __post_init__(self):
        check_choice("policy", self.policy, mld.POLICIES)
        check_choice("links", self.links, LINK_SETS)
        for f in fields(self):
            accepted = _ANNOTATION_TYPES.get(f.type)
            if accepted and type(getattr(self, f.name)) not in accepted[0]:
                raise ValueError(f"{f.name} must be {accepted[1]}")
        if not all(type(s) is int for s in self.seeds):
            raise ValueError("seeds must be integers")
        if self.n_sta < 1:
            raise ValueError("n_sta must be at least 1")
        if not self.seeds:
            raise ValueError("at least one seed required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must not repeat")
        mld.check_link_count(self.policy, len(LINK_SETS[self.links]))
        if self.fixed_mcs is not None and not 0 <= self.fixed_mcs < len(phy.MCS_TABLE):
            raise ValueError("fixed_mcs out of range")
        if self.sim_duration_s <= 0:
            raise ValueError("sim_duration_s must be positive")
        if self.activation_window_s < 0:
            raise ValueError("activation_window_s must not be negative")
        for name in ("sim_duration_s", "activation_window_s", "update_period_s"):
            if not math.isfinite(getattr(self, name) * US_PER_SEC):
                raise ValueError(f"{name} out of range")
        if self.horizon_us <= self.activation_window_us:
            raise ValueError("sim_duration_s must exceed activation_window_s")
        if self.update_period_us < 1:
            raise ValueError("update_period_s must be at least 1 us")
        if self.ma_window < 1:
            raise ValueError("ma_window must be at least 1")
        if self.buffer_cap < 1:
            raise ValueError("buffer_cap must be at least 1")
        if not (math.isfinite(self.cell_radius_m) and self.cell_radius_m > 0):
            raise ValueError("cell_radius_m must be finite and positive")
        streams_of(self)  # checks traffic and builds every stream

    @property
    def horizon_us(self) -> int:
        return round(self.sim_duration_s * US_PER_SEC)

    @property
    def activation_window_us(self) -> int:
        return round(self.activation_window_s * US_PER_SEC)

    @property
    def update_period_us(self) -> int:
        return round(self.update_period_s * US_PER_SEC)


def streams_of(cfg: ScenarioConfig) -> list[StreamConfig]:
    """The streams cfg.traffic enables, its overrides applied.

    One walk checks each traffic key as it applies it; overrides of kinds
    left out of 'enabled' are applied too, so they are checked as well.
    """
    traffic = {} if cfg.traffic is None else cfg.traffic
    if not isinstance(traffic, dict):
        raise ValueError("config key 'traffic' must be an object")
    streams = {s.kind: s for s in default_stream_set()}
    enabled = TRAFFIC_KINDS
    # the key names the kind, and no JSON value makes a jitter_model
    known = set(StreamConfig.__dataclass_fields__) - {"kind", "jitter_model"}
    for kind, repl in traffic.items():
        if kind == "enabled":
            if not isinstance(repl, list):
                raise ValueError("traffic key 'enabled' must be a list")
            for k in repl:
                if k not in TRAFFIC_KINDS:
                    raise ValueError(f"unknown traffic kind {k!r} in 'enabled'")
            enabled = repl
            continue
        if kind not in TRAFFIC_KINDS:
            raise ValueError(f"unknown traffic kind {kind!r}")
        if not isinstance(repl, dict):
            raise ValueError(f"traffic key {kind!r} must be an object")
        for key in repl:
            if key not in known:
                raise ValueError(f"unknown traffic field {key!r} under {kind!r}")
        streams[kind] = replace(streams[kind], **repl)
    selected = [s for s in streams.values() if s.kind in enabled]
    if not selected:
        raise ValueError("traffic.enabled selects no streams")
    return selected


@dataclass
class Deployment:
    positions: list  # (x, y) per station, AP at the origin
    activation_us: list

    def distance(self, sta_index: int) -> float:
        x, y = self.positions[sta_index]
        return max(math.hypot(x, y), MIN_LINK_DISTANCE_M)


def deploy(cfg: ScenarioConfig, seed: int) -> Deployment:
    """Disk-uniform positions (r = R sqrt(u)) and uniform activations."""
    pos_rng = rng_stream(seed, "deploy.pos")
    act_rng = rng_stream(seed, "deploy.act")
    window = cfg.activation_window_us
    positions, activations = [], []
    for _ in range(cfg.n_sta):
        r = cfg.cell_radius_m * math.sqrt(pos_rng.random())
        theta = 2 * math.pi * pos_rng.random()
        positions.append((r * math.cos(theta), r * math.sin(theta)))
        activations.append(round(act_rng.random() * window))
    return Deployment(positions, activations)


class Experiment:
    """One seed's fully wired simulation."""

    def __init__(self, cfg: ScenarioConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.sim = Simulator(seed)
        self.deployment = deploy(cfg, seed)
        self.streams = streams_of(cfg)

        self.media = [Medium(self.sim, link, j)
                      for j, link in enumerate(expand_links(cfg.links))]
        # all devices on a link sense its same busy time: they share one estimate
        self.estimators = [mld.CongestionEstimate(cfg.update_period_us, cfg.ma_window)
                           for _ in self.media]
        self.devices: dict[int, mld.MldDevice] = {}
        for dev_id in range(cfg.n_sta + 1):
            device = mld.MldDevice(self.sim, dev_id, cfg.policy, self.estimators,
                                   buffer_cap=cfg.buffer_cap)
            for medium in self.media:
                device.add_mac(LinkMac(self.sim, medium, dev_id, device, cfg.fixed_mcs))
            self.devices[dev_id] = device

        ap = self.devices[AP_ID]
        for sta in range(1, cfg.n_sta + 1):
            dist = self.deployment.distance(sta - 1)
            for medium, ap_mac, sta_mac in zip(self.media, ap.macs, self.devices[sta].macs):
                s = phy.snr(medium.link, dist)
                ap_mac.add_peer(sta, s)
                sta_mac.add_peer(AP_ID, s)

        # arrivals are chained per stream (each event schedules its
        # successor) to keep the event heap shallow; each carries the
        # device its stream feeds
        self.chains = {}  # (station, stream kind) -> its frames in index order
        for sta in range(1, cfg.n_sta + 1):
            act = self.deployment.activation_us[sta - 1]
            for stream in self.streams:
                size_rng = rng_stream(seed, f"traffic.sta{sta}.{stream.kind}.size")
                jitter_rng = rng_stream(seed, f"traffic.sta{sta}.{stream.kind}.jitter")
                chain = generate_frames(stream, sta, size_rng, jitter_rng, act,
                                        cfg.horizon_us)
                if chain:
                    self.chains[sta, stream.kind] = chain
                    target = self.devices[AP_ID if stream.downlink else sta]
                    self.sim.schedule(chain[0].arrival_time, self._on_arrival, chain, 0, target)
        self.sim.schedule(cfg.update_period_us, self._tick)

    @property
    def frames(self) -> list:
        return [f for chain in self.chains.values() for f in chain]

    def _on_arrival(self, chain: list, i: int, target: mld.MldDevice):
        if i + 1 < len(chain):
            self.sim.schedule(chain[i + 1].arrival_time, self._on_arrival, chain, i + 1, target)
        target.on_frame(chain[i])

    def _tick(self):
        now = self.sim.now
        for est, medium in zip(self.estimators, self.media):
            est.sample(medium.busy_total(now))
        nxt = now + self.cfg.update_period_us
        if nxt <= self.cfg.horizon_us:
            self.sim.schedule(nxt, self._tick)

    def run(self) -> Outcomes:
        self.sim.run_until(self.cfg.horizon_us)
        return seed_outcomes(self.seed, self.chains)


def run_one(cfg: ScenarioConfig, seed: int) -> Outcomes:
    """One seed's outcomes; an error in it names the seed and the cell."""
    try:
        return Experiment(cfg, seed).run()
    except Exception as e:
        raise RuntimeError(f"seed {seed} failed (policy={cfg.policy} links={cfg.links} "
                           f"n_sta={cfg.n_sta}): {e}") from e


def _seed_task(args):
    cfg, seed = args
    return run_one(cfg, seed)


def _pooled(cfg: ScenarioConfig, workers: int) -> bool:
    """Whether run_seeds runs cfg's seeds in a process pool."""
    return workers > 1 and len(cfg.seeds) > 1


class SeedPool:
    """One process pool for every run_seeds call made while it is open
    (see seed_pool).  prefetch queues a config's seeds behind those already
    queued, so the workers start on them while earlier seeds finish; a
    seed's result depends only on (config, seed), so a queued config gives
    the same blocks as one run on demand."""

    def __init__(self, workers: int):
        self.workers = workers
        self.executor = None  # started by the first pooled run
        self.queued = []  # (config, its results iterator), in submission order

    def prefetch(self, *cfgs):
        """Queue each config run_seeds would pool, unless already queued."""
        for cfg in cfgs:
            if _pooled(cfg, self.workers) and all(c != cfg for c, _ in self.queued):
                self.queued.append((cfg, self._map(cfg)))

    def results(self, cfg) -> list:
        """cfg's per-seed results in seed order: its queued run, or one now."""
        for i, (queued_cfg, it) in enumerate(self.queued):
            if queued_cfg == cfg:
                del self.queued[i]
                return list(it)
        return list(self._map(cfg))

    def _map(self, cfg):
        if self.executor is None:  # it starts all its workers at once
            self.executor = ProcessPoolExecutor(
                max_workers=min(self.workers, len(cfg.seeds)))
        return self.executor.map(_seed_task, [(cfg, s) for s in cfg.seeds])

    def close(self):
        """Discard every queued run and stop the workers once their running
        seeds end; a later run starts new ones."""
        self.queued.clear()
        if self.executor is not None:
            executor, self.executor = self.executor, None
            executor.shutdown(cancel_futures=True)


_open_pool: ContextVar[SeedPool | None] = ContextVar("open seed pool", default=None)


@contextmanager
def seed_pool(workers: int):
    """Open a SeedPool that run_seeds uses until the block exits, then
    close it: no worker outlives the block."""
    pool = SeedPool(workers)
    token = _open_pool.set(pool)
    try:
        yield pool
    finally:
        _open_pool.reset(token)
        pool.close()


def run_seeds(cfg: ScenarioConfig, workers: int = 1) -> Outcomes:
    """One independent simulation per seed; blocks merged in seed order.
    With workers > 1 and more than one seed, the seeds run in the innermost
    open seed pool (taking cfg's queued run, if any) or, outside one, in a
    pool of their own, never more workers than seeds; else in this process."""
    if not _pooled(cfg, workers):
        results = [run_one(cfg, seed) for seed in cfg.seeds]
    elif (pool := _open_pool.get()) is not None:
        results = pool.results(cfg)
    else:
        with seed_pool(workers) as pool:
            results = pool.results(cfg)
    merged = Outcomes()
    for result in results:
        merged.extend(result)
    return merged
