"""End-to-end and per-layer benchmark of the mlosim CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --pin NAME

Run from the repository root (or anywhere: paths are resolved from this
file).  Every workload is a batch job, one CLI command at a time: a closed
loop with one client.  See perfbench/README.md for the workloads, the
metrics and how to compare two commits.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record (every sample,
the environment, the simulated statistics) goes to
perfbench/out/<workload>.seed<N>.trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import (CAPACITY_FILES, RUN_FILES, check_frames, check_summary,
                    digests, parse_capacity)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150
MIN_REPEATS = 3

# Each workload: CLI command, config, seeds per command, --workers.
# run-greedy and run-congestion share seeds, frames and load (n=8 sits just
# under 2x40 capacity); only the MLD policy differs, so the extra time of
# run-congestion is SAP restart work.  capacity-sl is the paper's search:
# many short probes, one pool per probe, results pickled back; its max_sta
# cap sits below the capacity so the probe count does not follow the seeds.
# BENCHMARK.json gates run-congestion and capacity-sl; run-greedy is run by
# hand as the restart-free contrast (see README.md).
WORKLOADS = {
    "run-greedy": {"command": "run", "workers": 1, "seeds": 3,
                   "config": {"policy": "greedy", "links": "2x40", "n_sta": 8,
                              "sim_duration_s": 5.0}},
    "run-congestion": {"command": "run", "workers": 1, "seeds": 3,
                       "config": {"policy": "congestion", "links": "2x40",
                                  "n_sta": 8, "sim_duration_s": 5.0}},
    "capacity-sl": {"command": "capacity", "workers": 2, "seeds": 10,
                    "config": {"policy": "sl", "links": "80", "max_sta": 6,
                               "sim_duration_s": 3.0}},
}

# Tiny sizes for --smoke: every code path, a few seconds per workload.
SMOKE = {"run-greedy": {"n_sta": 2, "sim_duration_s": 1.5},
         "run-congestion": {"n_sta": 2, "sim_duration_s": 1.5},
         "capacity-sl": {"max_sta": 2, "sim_duration_s": 1.5,
                         "activation_window_s": 0.2}}
SMOKE_SEEDS = 2

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_rate": "ratio"}

# Simulated statistics: a host-speed change must leave them exactly equal.
INVARIANTS = ("traffic.frames", "traffic.mpdus", "phy.select_calls",
              "mac.ppdus", "mac.collision_ratio", "mac.mpdus_per_ppdu",
              "mac.busy_frac.link0", "mac.busy_frac.link1",
              "mld.resolutions", "mld.restarts", "mld.restart_ratio",
              "stats.records", "stats.lost", "cli.probes")


def derive_seeds(base: int, k: int) -> list[int]:
    """k simulation seeds for base seed `base`; disjoint for distinct bases."""
    return [base * 100 + i for i in range(k)]


def spawn(argv, log_path: Path, env) -> tuple[int, float, float, float]:
    """Run argv to completion; (exit code, wall s, user+sys cpu s, peak rss MB).

    rusage comes from wait4 on the child, which on Linux covers the child
    and every descendant it waited for (the pool workers).  ru_maxrss is
    the largest single process, not a sum.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


class Bench:
    """One benchmark invocation: one workload, one base seed."""

    def __init__(self, name: str, base_seed: int, smoke: bool = False):
        from mlosim.scenario import streams_of
        from mlosim import cli

        self.name = name
        self.spec = WORKLOADS[name]
        self.config = dict(self.spec["config"])
        n_seeds = self.spec["seeds"]
        if smoke:
            self.config.update(SMOKE[name])
            n_seeds = SMOKE_SEEDS
        self.smoke = smoke
        self.base_seed = base_seed
        self.seeds = derive_seeds(base_seed, n_seeds)
        self.capacity = self.spec["command"] == "capacity"
        tag = f"{name}.seed{base_seed}" + (".smoke" if smoke else "")
        self.work = OUT / tag
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.out_dir = self.work / "out"
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=1) + "\n")
        cfg = cli.resolve_config(self.config, seeds=self.seeds,
                                 extra_keys=cli.CAPACITY_KEYS)
        self.streams = streams_of(cfg)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        self.golden = {} if smoke else golden.get(name, {})
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digests = None
        self.checked = {}  # output digests -> check result
        self.simulated = {}
        self.expected_frames = None
        self.loads = [os.getloadavg()]

    # -- children ----------------------------------------------------------

    def setup_n(self) -> int:
        if not self.capacity:
            return self.config["n_sta"]
        return self.golden.get("setup_n", self.config["max_sta"])

    def setup(self) -> float:
        """One setup_s sample from a fresh interpreter; keeps its frame list."""
        argv = [sys.executable, str(CHILD), "setup", str(self.config_path),
                ",".join(map(str, self.seeds)), str(self.setup_n())]
        log = self.work / "setup.log"
        code, _, _, _ = spawn(argv, log, self.env)
        if code != 0:
            raise RuntimeError(f"setup child failed: {log.read_text()[-2000:]}")
        report = json.loads(log.read_text().splitlines()[-1])
        self.expected_frames = report["frames"]
        return report["setup_s"]

    def cli_args(self) -> list[str]:
        return [self.spec["command"], "--config", str(self.config_path),
                "--out", str(self.out_dir), "--seeds", ",".join(map(str, self.seeds)),
                "--workers", str(self.spec["workers"])]

    def command(self, traced: bool) -> dict:
        """One CLI command in a fresh child; its timings and its output check."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        spans = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(CHILD), "trace", str(spans)] + self.cli_args()
        else:
            argv = [sys.executable, "-m", "mlosim.cli"] + self.cli_args()
        code, wall, cpu, rss = spawn(argv, self.work / "cli.log", self.env)
        self.loads.append(os.getloadavg())
        self.warn_load()
        self.count(code)
        sample = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "exit": code}
        if traced and code == 0:
            sample["trace"] = json.loads(spans.read_text())
        return sample

    # -- checks ------------------------------------------------------------

    def files(self):
        return CAPACITY_FILES if self.capacity else RUN_FILES

    def count(self, code: int):
        """Check the last command's outputs; add its operations to the tally."""
        dig = digests(self.out_dir, self.files())
        if code != 0 or None in dig.values():
            self.attempted += len(self.seeds)
            self.failed += len(self.seeds)
            self.problems.append(f"exit code {code}, outputs {dig}")
            return
        key = tuple(dig.values())
        if key not in self.checked:
            self.checked[key] = self.check_dir(self.out_dir)
        ops, failed, problems, simulated = self.checked[key]
        if self.first_digests is None:
            self.first_digests = dig
            self.simulated = simulated
        elif dig != self.first_digests:
            failed = ops
            problems = problems + ["outputs differ from the first command's"]
        self.attempted += ops
        self.failed += failed
        self.problems.extend(problems)

    def check_dir(self, out_dir: Path) -> tuple[int, int, list, dict]:
        """(operations, failed operations, problems, simulated statistics)."""
        problems = []
        if self.base_seed == DEFAULT_SEED and "digests" in self.golden:
            for fname, want in self.golden["digests"].items():
                got = digests(out_dir, [fname])[fname]
                if got != want:
                    problems.append(f"{fname} sha256 {got} != pinned {want}")
        if self.capacity:
            try:
                max_sta, probes, found = parse_capacity(
                    (out_dir / "capacity.txt").read_text(),
                    (out_dir / "per_n.csv").read_text())
            except (ValueError, KeyError) as e:
                return len(self.seeds), len(self.seeds), [f"unreadable capacity output: {e!r}"], {}
            problems += found
            ops = len(probes) * len(self.seeds)
            failed = ops if problems else 0
            return ops, failed, problems, {"max_sta": max_sta, "worst_p99_us": probes}
        delays = (out_dir / "delays.csv").read_text()
        summary = (out_dir / "summary.txt").read_text()
        try:
            problems += check_summary(delays, summary, self.streams)
        except (ValueError, KeyError) as e:
            problems.append(f"cannot evaluate delays.csv: {e!r}")
        failed_seeds, per_seed = check_frames(delays, self.seeds, self.expected_frames)
        ops = len(self.seeds)
        failed = ops if problems else len(failed_seeds)
        worst = {}
        for line in summary.splitlines():
            if line.startswith("stream="):
                fields = dict(kv.split("=", 1) for kv in line.split())
                worst[fields["stream"]] = fields["worst_p99_us"]
        simulated = {"worst_p99_us": worst, "lost": delays.count(",LOST\n")}
        return ops, failed, problems + per_seed, simulated

    def warn_load(self):
        load = self.loads[-1][0]
        if load > (os.cpu_count() or 1):
            print(f"warning: load average {load:.2f} exceeds nproc "
                  f"{os.cpu_count()}; timings are unreliable", file=sys.stderr)

    # -- records -----------------------------------------------------------

    def environment(self) -> dict:
        # the ceiling keeps git from taking the commit of an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                    timeout=10, capture_output=True,
                                    text=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
        return {"python": platform.python_version(), "nproc": os.cpu_count(),
                "loadavg": self.loads, "load_warning":
                    max(l[0] for l in self.loads) > (os.cpu_count() or 1),
                "commit": commit, "base_seed": self.base_seed,
                "seeds": self.seeds, "setup_n": self.setup_n(),
                "config": self.config, "workers": self.spec["workers"]}

    def summary(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0 and not self.problems,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def repeat(fn, seconds: float, min_repeats: int) -> list:
    """Call fn at least min_repeats times, then while the next call still
    fits in `seconds` (judged by the last call's duration)."""
    out = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        out.append(fn())
        end = time.perf_counter()
        if len(out) >= min_repeats and end - t0 + (end - start) > seconds:
            return out


def untraced(bench: Bench, seconds: float, min_repeats: int):
    """Alternate a set-up sample and a CLI command, so both spread over the
    run and a slow spell of the machine hits few samples of either."""
    bench.setup()  # warm-up, not counted
    pairs = repeat(lambda: (bench.setup(), bench.command(traced=False)),
                   seconds, min_repeats)
    setup, samples = [s for s, _ in pairs], [c for _, c in pairs]
    metrics = {k: (statistics.median([s[k] for s in samples]), END_TO_END_UNITS[k])
               for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["success_rate"] = (1 - bench.failed / max(bench.attempted, 1), "ratio")
    return metrics, {"setup_s": setup, "commands": samples}


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced command, (value, unit) by name."""
    from tracer import LAYER_OF  # imports mlosim, so only once src/ is on the path

    agg, c = trace["agg"], trace["counts"]
    seed_s = [end - start for name, start, end, _, _ in trace["spans"]
              if name == "scenario.run_one"]

    def ratio(a, b):
        return a / b if b else 0.0

    def total(name):
        return agg[name][1]

    events, scheduled = c.get("engine.events", 0), c.get("engine.scheduled", 0)
    ppdus, ipc_seeds = c.get("mac.ppdus", 0), c.get("scenario.ipc_seeds", 0)
    resolutions = agg["mld.on_resolution"][0]
    m = {
        "engine.events": (events, "count"),
        "engine.loop_s": (total("engine.run_until"), "s"),
        "engine.events_per_s": (ratio(events, total("engine.run_until")), "1/s"),
        "engine.scheduled": (scheduled, "count"),
        "engine.cancel_ratio": (ratio(c.get("engine.cancelled", 0), scheduled), "ratio"),
        "traffic.frames": (c.get("traffic.frames", 0), "count"),
        "traffic.mpdus": (c.get("traffic.mpdus", 0), "count"),
        "traffic.gen_s": (total("traffic.generate_frames"), "s"),
        "phy.select_calls": (agg["phy.select"][0], "count"),
        "phy.select_s": (total("phy.select"), "s"),
        "mac.ppdus": (ppdus, "count"),
        "mac.collision_ratio": (ratio(c.get("mac.collisions", 0), ppdus), "ratio"),
        "mac.mpdus_per_ppdu": (ratio(c.get("mac.mpdus_sent", 0), ppdus), "count"),
        "mac.empty_grant_ratio": (ratio(c.get("mld.empty_grants", 0),
                                        agg["mld.build_ampdu"][0]), "ratio"),
        "mld.resolutions": (resolutions, "count"),
        "mld.restarts": (c.get("mld.restarts", 0), "count"),
        "mld.restart_ratio": (ratio(c.get("mld.restarts", 0), resolutions), "ratio"),
        "mld.build_s": (total("mld.build_ampdu"), "s"),
        "mld.resolution_s": (total("mld.on_resolution"), "s"),
        "scenario.build_s": (total("scenario.build"), "s"),
        "scenario.seed_s.p50": (statistics.median(seed_s) if seed_s else 0.0, "s"),
        "scenario.seed_s.max": (max(seed_s, default=0.0), "s"),
        "scenario.parallel_eff": (ratio(sum(seed_s), c.get("scenario.worker_s", 0)), "ratio"),
        "scenario.ipc_bytes_per_seed": (ratio(c.get("scenario.ipc_bytes", 0), ipc_seeds), "B"),
        "scenario.ipc_s_per_seed": (ratio(c.get("scenario.ipc_s", 0), ipc_seeds), "s"),
        "stats.records": (c.get("stats.records", 0), "count"),
        "stats.lost": (c.get("stats.lost", 0), "count"),
        "stats.evaluate_s": (total("stats.evaluate"), "s"),
        "stats.ccdf_s": (total("stats.export_ccdf"), "s"),
        "stats.format_s": (total("stats.format"), "s"),
        "cli.write_s": (total("cli.write_atomic"), "s"),
        "cli.probes": (c.get("cli.probes", 0), "count"),
    }
    for j in (0, 1):
        m[f"mac.busy_frac.link{j}"] = (ratio(c.get(f"mac.busy_us.link{j}", 0),
                                             c.get(f"mac.horizon_us.link{j}", 0)), "ratio")
    for layer in sorted(set(LAYER_OF.values())):
        own = sum(agg[n][2] for n, l in LAYER_OF.items() if l == layer)
        m[f"{layer}.self_s"] = (own, "s")
    return m


def traced(bench: Bench, seconds: float):
    """Alternate untraced and traced commands; per-layer medians and overhead."""
    bench.setup()  # frame lists for the output check
    pairs = repeat(lambda: (bench.command(traced=False), bench.command(traced=True)),
                   seconds, 1)
    plain, runs = [p for p, _ in pairs], [t for _, t in pairs]
    per_run = [layer_metrics(r["trace"]) for r in runs if "trace" in r]
    if not per_run:
        return {}, {"untraced": plain, "traced": runs}
    metrics = {k: (statistics.median([m[k][0] for m in per_run]), unit)
               for k, (_, unit) in per_run[0].items()}
    metrics["trace.overhead_s"] = (statistics.median([r["wall_s"] for r in runs])
                                   - statistics.median([r["wall_s"] for r in plain]), "s")
    spans = runs[-1]["trace"]["spans"]
    (OUT / f"{bench.work.name}.spans.json").write_text(json.dumps(spans))
    for r in runs:
        r.pop("trace", None)
    return metrics, {"untraced": plain, "traced": runs,
                     "invariants": [{k: m[k][0] for k in INVARIANTS} for m in per_run]}


def execute(name: str, base_seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, Bench]:
    bench = Bench(name, base_seed, smoke)
    if trace:
        metrics, samples = traced(bench, seconds)
    else:
        metrics, samples = untraced(bench, seconds, 1 if smoke else MIN_REPEATS)
    bench.loads.append(os.getloadavg())
    result = bench.summary(metrics)
    simulated = dict(bench.simulated)
    if trace and samples.get("invariants"):
        simulated["invariants"] = samples["invariants"][0]
    record = {"workload": name, "trace": int(trace), "smoke": smoke,
              "result": result, "error_rate": bench.failed / max(bench.attempted, 1),
              "problems": bench.problems, "simulated": simulated,
              "environment": bench.environment(), "samples": samples}
    tag = f"{bench.work.name}.trace{int(trace)}.json"
    (OUT / tag).write_text(json.dumps(record, indent=1) + "\n")
    return result, bench


def smoke() -> int:
    """Tiny run of every workload: metric names and units, and the checks."""
    spec = json.loads(BENCHMARK.read_text())
    errors = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, bench = execute(name, DEFAULT_SEED, 0, trace, smoke=True)
            if not result["correct"]:
                errors.append(f"{name} trace={int(trace)}: {bench.problems}")
            got = result["metrics"]
            for m in spec[key]:
                if got.get(m["name"], {}).get("unit") != m["unit"]:
                    errors.append(f"{name}: metric {m['name']} [{m['unit']}] "
                                  f"missing, got {got.get(m['name'])}")
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                errors.append(f"{name}: metrics not in BENCHMARK.json: {sorted(extra)}")
        # a corrupted copy of an output must fail an operation
        bad = bench.work / "corrupt"
        shutil.copytree(bench.out_dir, bad)
        if bench.capacity:
            p = bad / "capacity.txt"
            p.write_text(p.read_text().replace("max_sta=", "max_sta=9", 1))
        else:
            p = bad / "delays.csv"
            p.write_text("".join(p.read_text().splitlines(keepends=True)[:-1]))
        _, failed, problems, _ = bench.check_dir(bad)
        if failed == 0:
            errors.append(f"{name}: corrupted {p.name} passed the checks")
        print(f"smoke {name}: corrupted {p.name} -> {failed} failed: {problems[:1]}")
    for e in errors:
        print(f"smoke error: {e}", file=sys.stderr)
    print("smoke " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def pin(name: str) -> int:
    """Record digests (and the final probe's n) at the default seed."""
    old = GOLDEN.read_text() if GOLDEN.is_file() else "{}"
    golden = json.loads(old)
    golden.pop(name, None)  # run without the digests being replaced
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    result, bench = execute(name, DEFAULT_SEED, 0, False)
    if not result["correct"]:
        GOLDEN.write_text(old)
        print(f"not pinned, checks failed: {bench.problems}", file=sys.stderr)
        return 1
    entry = {"digests": digests(bench.out_dir, bench.files())}
    if bench.capacity:
        entry["setup_n"] = max(int(n) for n in bench.simulated["worst_p99_us"])
    golden[name] = entry
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(json.dumps({name: entry}, indent=1))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=58.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--pin", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    if not (SRC / "mlosim" / "cli.py").is_file():
        print(f"error: no mlosim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.pin:
        return pin(args.pin)
    if not args.workload:
        p.error("--workload is required")
    result, bench = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for k, m in result["metrics"].items():
        print(f"{args.workload} {k} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate {bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed}/{bench.attempted} operations)")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
