"""Layer tracing for mlosim, installed from outside the package at run time.

`install()` replaces the public entry points of each mlosim layer with
timing wrappers, patched under the name the caller looks up (for example
`mlosim.scenario.generate_frames`, not `mlosim.traffic.generate_frames`),
so `src/` stays untouched.  Two kinds of records are kept in memory:

- spans, for coarse boundaries that run a few times per seed:
  [name, start, end, parent span index or -1, seed id];
- aggregates, for hot calls inside the event loop: per name the call
  count, the total time and the self time (duration minus the time of
  wrapped calls nested inside it).

A span's self time is likewise its duration minus the time its wrapped
children cover.  Simple counters sit next to both.

Capacity probes run seeds in forked pool workers.  There the wrapped
`_seed_task` starts from a zeroed tracer and hands its records back with
the result, and the patched pool merges them in the parent.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor

from mlosim import cli, engine, mac, mld, phy, scenario, stats

perf = time.perf_counter

# Layer of every wrapped name; a layer's self time is the sum over its names.
LAYER_OF = {
    "engine.run_until": "engine",
    "traffic.generate_frames": "traffic",
    "phy.select": "phy",
    "mac.begin_tx": "mac",
    "mld.build_ampdu": "mld",
    "mld.on_resolution": "mld",
    "scenario.run_seeds": "scenario",
    "scenario.run_one": "scenario",
    "scenario.build": "scenario",
    "scenario.run": "scenario",
    "stats.capacity_search": "stats",
    "stats.evaluate": "stats",
    "stats.export_ccdf": "stats",
    "stats.format": "stats",
    "cli.main": "cli",
    "cli.write_atomic": "cli",
}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent, seed id]
        self.open = []    # indexes of spans not yet closed
        self.stack = []   # one [start, child seconds] per active wrapped call
        self.agg = {name: [0, 0.0, 0.0] for name in LAYER_OF}
        self.counts = {}
        self.seed_id = None

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def reset(self):
        """Zero in place: wrappers hold references to the aggregate lists."""
        self.spans.clear()
        self.open.clear()
        self.stack.clear()
        for a in self.agg.values():
            a[:] = (0, 0.0, 0.0)
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "agg": {k: list(v) for k, v in self.agg.items()},
                "counts": dict(self.counts)}

    def merge(self, snap: dict):
        """Fold a worker's records in; its root spans hang off the open span."""
        offset = len(self.spans)
        parent = self.open[-1] if self.open else -1
        for name, start, end, p, seed in snap["spans"]:
            self.spans.append([name, start, end, parent if p < 0 else p + offset, seed])
        for k, (n, total, own) in snap["agg"].items():
            a = self.agg[k]
            a[0] += n
            a[1] += total
            a[2] += own
        for k, n in snap["counts"].items():
            self.count(k, n)

    def timed(self, name, fn, span=False):
        """Wrap fn so each call adds to the aggregate `name` (and a span)."""
        agg, stack, spans, open_ = self.agg[name], self.stack, self.spans, self.open

        def wrapper(*args, **kwargs):
            if span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, self.seed_id])
                open_.append(idx)
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if span:
                    open_.pop()
                    spans[idx][1] = frame[0]
                    spans[idx][2] = end

        return wrapper


TRACER = Tracer()


class TracedRows(list):
    """A worker's run_one result with that seed's trace records attached."""
    trace: dict


def _seed_task(args):
    """Worker side of a pooled seed; replaces scenario._seed_task."""
    cfg, seed = args
    TRACER.reset()  # drop the parent's records inherited through fork
    rows = scenario.run_one(cfg, seed)
    t0 = perf()
    blob = pickle.dumps(rows, pickle.HIGHEST_PROTOCOL)
    pickle.loads(blob)
    TRACER.count("scenario.ipc_s", perf() - t0)
    TRACER.count("scenario.ipc_bytes", len(blob))
    TRACER.count("scenario.ipc_seeds")
    out = TracedRows(rows)
    out.trace = TRACER.snapshot()
    return out


class TracedPool(ProcessPoolExecutor):
    def map(self, fn, *iterables, **kwargs):
        for result in super().map(fn, *iterables, **kwargs):
            if isinstance(result, TracedRows):
                TRACER.merge(result.trace)
            yield result


def install() -> Tracer:
    """Patch every traced name; call once per process."""
    t = TRACER

    # engine: events dispatched, scheduled and cancelled
    run_until = engine.Simulator.run_until
    timed_run_until = t.timed("engine.run_until", run_until, span=True)

    def traced_run_until(self, end):
        n = timed_run_until(self, end)
        t.count("engine.events", n)
        return n
    setattr(engine.Simulator, "run_until", traced_run_until)

    schedule = engine.Simulator.schedule

    def counted_schedule(self, at, fn, *args):
        t.counts["engine.scheduled"] = t.counts.get("engine.scheduled", 0) + 1
        return schedule(self, at, fn, *args)
    setattr(engine.Simulator, "schedule", counted_schedule)

    cancel = engine.Simulator.cancel

    def counted_cancel(self, handle):
        ok = cancel(self, handle)
        if ok:
            t.count("engine.cancelled")
        return ok
    setattr(engine.Simulator, "cancel", counted_cancel)

    # traffic: generated frames and admitted MPDUs
    gen = t.timed("traffic.generate_frames", scenario.generate_frames)

    def traced_generate_frames(*args, **kwargs):
        frames = gen(*args, **kwargs)
        t.count("traffic.frames", len(frames))
        return frames
    setattr(scenario, "generate_frames", traced_generate_frames)

    fragment = mld.fragment

    def counted_fragment(frame):
        mpdus = fragment(frame)
        t.count("traffic.mpdus", len(mpdus))
        return mpdus
    setattr(mld, "fragment", counted_fragment)

    # phy: rate selection
    setattr(phy.RateSelector, "select", t.timed("phy.select", phy.RateSelector.select))

    # mac: PPDUs, their size, collisions
    begin_tx = t.timed("mac.begin_tx", mac.Medium.begin_tx)

    def traced_begin_tx(self, link_mac, ampdu):
        t.count("mac.ppdus")
        t.count("mac.mpdus_sent", len(ampdu.mpdus))
        return begin_tx(self, link_mac, ampdu)
    setattr(mac.Medium, "begin_tx", traced_begin_tx)

    on_tx_collided = mac.LinkMac.on_tx_collided

    def counted_collision(self, ampdu):
        t.count("mac.collisions")
        return on_tx_collided(self, ampdu)
    setattr(mac.LinkMac, "on_tx_collided", counted_collision)

    # mld: A-MPDU building (empty grants) and resolutions
    build = t.timed("mld.build_ampdu", mld.MldDevice.build_ampdu)

    def traced_build(self, link_mac):
        ampdu = build(self, link_mac)
        if ampdu is None:
            t.count("mld.empty_grants")
        return ampdu
    setattr(mld.MldDevice, "build_ampdu", traced_build)

    setattr(mld.MldDevice, "on_resolution",
          t.timed("mld.on_resolution", mld.MldDevice.on_resolution))

    # scenario: experiment build and run, seeds, pools
    base = scenario.Experiment
    build_exp = t.timed("scenario.build", base.__init__, span=True)
    run_exp = t.timed("scenario.run", base.run, span=True)

    class TracedExperiment(base):
        def __init__(self, cfg, seed):
            build_exp(self, cfg, seed)

        def run(self):
            rows = run_exp(self)
            horizon = self.cfg.horizon_us
            for j, medium in enumerate(self.media):
                t.count(f"mac.busy_us.link{j}", medium.busy_total(horizon))
                t.count(f"mac.horizon_us.link{j}", horizon)
            t.count("mld.restarts",
                    sum(d.restart_count for d in self.devices.values()))
            return rows
    setattr(scenario, "Experiment", TracedExperiment)

    run_one = t.timed("scenario.run_one", scenario.run_one, span=True)

    def traced_run_one(cfg, seed):
        t.seed_id = f"n{cfg.n_sta}.s{seed}"
        try:
            return run_one(cfg, seed)
        finally:
            t.seed_id = None
    setattr(scenario, "run_one", traced_run_one)
    setattr(scenario, "_seed_task", _seed_task)
    setattr(scenario, "ProcessPoolExecutor", TracedPool)

    run_seeds = t.timed("scenario.run_seeds", scenario.run_seeds, span=True)

    def traced_run_seeds(cfg, workers=1):
        t0 = perf()
        rows = run_seeds(cfg, workers=workers)
        pooled = workers > 1 and len(cfg.seeds) > 1
        t.count("scenario.worker_s", (perf() - t0) * (workers if pooled else 1))
        t.count("stats.records", len(rows))
        t.count("stats.lost", sum(1 for r in rows if r.delay_us is None))
        t.count("cli.probes")
        return rows
    setattr(scenario, "run_seeds", traced_run_seeds)
    setattr(cli, "run_seeds", traced_run_seeds)

    # stats: reduction and formatting, under the names cli and the
    # capacity search call
    evaluate = t.timed("stats.evaluate", stats.evaluate, span=True)
    setattr(stats, "evaluate", evaluate)
    setattr(cli, "evaluate", evaluate)
    setattr(cli, "export_ccdf", t.timed("stats.export_ccdf", cli.export_ccdf, span=True))
    for name in ("format_records", "format_ccdf", "format_summary", "format_capacity"):
        setattr(cli, name, t.timed("stats.format", getattr(cli, name), span=True))
    setattr(cli, "capacity_search",
          t.timed("stats.capacity_search", cli.capacity_search, span=True))

    # cli: file output and the command itself
    setattr(cli, "write_atomic", t.timed("cli.write_atomic", cli.write_atomic, span=True))
    setattr(cli, "main", t.timed("cli.main", cli.main, span=True))
    return t

