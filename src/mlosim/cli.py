"""Command-line frontend for single runs, capacity searches, and sweeps.

Configs are JSON objects keyed by ScenarioConfig's field names, each
value spelled as the field holds it; the empty object {} reproduces the
default setup (greedy policy, two 40 MHz links, AR traffic, ten seeds).  Everything is written atomically to the output
directory together with a manifest recording the resolved configuration,
so any result directory can be reproduced from its own manifest.

Exit codes: 0 success, 1 usage or config error (a bad, missing or unknown
flag or subcommand, or a bad config; stderr names it), 2 internal error.
"""
import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__, mld
from .scenario import (LINK_SETS, ScenarioConfig, check_choice,
                       equivalent_single_link, run_seeds, seed_pool, streams_of)
from .stats import (CapacityResult, all_pass, evaluate, export_ccdf,
                    format_capacity, format_ccdf, format_delay, format_records,
                    format_summary)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTERNAL = 2

SCENARIO_KEYS = tuple(f.name for f in fields(ScenarioConfig))
CAPACITY_KEYS = ("max_sta",)
SWEEP_KEYS = ("policies", "link_sets", "sta_counts")
CAPACITY_SETS = ("n_sta",)  # scenario keys the command sets, so no config may
SWEEP_SETS = ("policy", "links", "n_sta")
MAX_STA = 64  # capacity search cap when the config sets no max_sta


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}")
    except ValueError as e:  # a JSON or a UTF-8 decode error
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return raw


def _check_keys(raw: dict, allowed) -> None:
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r}")


def _reject_set_keys(raw: dict, keys, command: str) -> None:
    for key in keys:
        if key in raw:
            raise ConfigError(f"config key {key!r} is not allowed: {command} sets it")


def resolve_config(raw: dict, seeds=None, extra_keys=()) -> ScenarioConfig:
    """Build a validated ScenarioConfig from a parsed config dict.

    seeds, when given, overrides the config's seed list (the --seeds flag);
    the config's own list is checked first all the same.  extra_keys lists
    command-specific keys tolerated alongside the scenario ones.
    """
    _check_keys(raw, SCENARIO_KEYS + tuple(extra_keys))
    if not isinstance(raw.get("seeds", ()), (list, tuple)):
        raise ConfigError("config key 'seeds' must be a list")
    kwargs = {key: raw[key] for key in SCENARIO_KEYS if key in raw}
    if "seeds" in kwargs:
        kwargs["seeds"] = tuple(kwargs["seeds"])
    try:
        cfg = ScenarioConfig(**kwargs)
        return cfg if seeds is None else replace(cfg, seeds=tuple(seeds))
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(str(e))


def config_to_dict(cfg: ScenarioConfig, omit=()) -> dict:
    """Resolved-config echo without the omit keys; resolve_config on it yields cfg."""
    return {key: value for key, value in asdict(cfg).items()
            if value is not None and key not in omit}


def make_out_dir(path) -> Path:
    """Create the --out directory, mapping a failure to a ConfigError."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {path}: {e.strerror}")
    return out_dir


def write_atomic(path: Path, text) -> None:
    """Write text, one string or an iterable of strings, to path atomically."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as f:
        f.writelines([text] if isinstance(text, str) else text)
    os.replace(tmp, path)


def write_manifest(out_dir: Path, command: str, config_path, cfg_echo: dict,
                   runtime_s: float) -> None:
    manifest = {
        "tool": "mlosim",
        "version": __version__,
        "command": command,
        "config_path": str(config_path),
        "config": cfg_echo,
        "out_dir": str(out_dir),
        "runtime_s": round(runtime_s, 3),
    }
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _write_run_outputs(out_dir: Path, rows, streams) -> str:
    """Write delays.csv, the CCDFs and summary.txt; return the summary."""
    write_atomic(out_dir / "delays.csv", format_records(rows))
    for s in streams:
        write_atomic(out_dir / f"ccdf_{s.kind}.csv", format_ccdf(export_ccdf(rows, s.kind)))
    summary = format_summary(evaluate(rows, streams))
    write_atomic(out_dir / "summary.txt", summary)
    return summary


def cmd_run(args) -> int:
    cfg = resolve_config(load_config(args.config), seeds=args.seeds)
    out_dir = make_out_dir(args.out)
    t0 = time.perf_counter()
    rows = run_seeds(cfg, workers=args.workers)
    summary = _write_run_outputs(out_dir, rows, streams_of(cfg))
    write_manifest(out_dir, "run", args.config, config_to_dict(cfg),
                   time.perf_counter() - t0)
    print(summary, end="")
    return EXIT_OK


def cmd_capacity(args) -> int:
    raw = load_config(args.config)
    max_n = raw.get("max_sta", MAX_STA)
    if type(max_n) is not int or max_n < 1:
        raise ConfigError("config key 'max_sta' must be a positive integer")
    _reject_set_keys(raw, CAPACITY_SETS, "capacity")
    cfg = resolve_config(raw, seeds=args.seeds, extra_keys=CAPACITY_KEYS)
    out_dir = make_out_dir(args.out)
    t0 = time.perf_counter()
    result = capacity_search(cfg, max_n=max_n, workers=args.workers)
    write_atomic(out_dir / "capacity.txt", format_capacity(result))
    lines = ["n,stream,worst_p99_us,pdb_us,verdict"]
    for n, verdicts in result.per_n:
        for v in verdicts:
            lines.append(f"{n},{v.stream},{format_delay(v.worst_p99_us)},"
                         f"{v.pdb_us},{'PASS' if v.passed else 'FAIL'}")
    write_atomic(out_dir / "per_n.csv", "\n".join(lines) + "\n")
    echo = {**config_to_dict(cfg, omit=CAPACITY_SETS), "max_sta": max_n}
    write_manifest(out_dir, "capacity", args.config, echo,
                   time.perf_counter() - t0)
    print(f"policy={result.policy} links={result.links} "
          f"max_sta={result.max_sta}")
    if result.max_sta == 0:
        print("warning: capacity is 0, a single station already fails")
    elif result.max_sta == max_n:
        print(f"warning: no probe failed up to max_sta={max_n}; "
              f"capacity is at least {max_n}")
    return EXIT_OK


def capacity_search(base_cfg: ScenarioConfig, max_n: int = MAX_STA,
                    workers: int = 1) -> CapacityResult:
    """Raise n_sta from 1 until a stream verdict fails; previous n is the
    capacity.  Stops early on the first failure (loads only grow with n).
    One seed pool serves every probe, and each probe's seeds are queued
    with the next probe's behind them, which a failure discards.
    """
    per_n = []
    max_sta = 0
    probes = [replace(base_cfg, n_sta=n) for n in range(1, max_n + 1)]
    with seed_pool(workers) as pool:
        for n, cfg in enumerate(probes, 1):
            pool.prefetch(*probes[n - 1:n + 1])
            verdicts = evaluate(run_seeds(cfg, workers=workers), streams_of(cfg))
            ok = all_pass(verdicts)
            per_n.append((n, verdicts))
            log.info("capacity probe policy=%s n=%d -> %s", base_cfg.policy, n,
                     "pass" if ok else "fail")
            if not ok:
                break
            max_sta = n
    return CapacityResult(base_cfg.policy, base_cfg.links, max_sta, per_n)


def cmd_sweep(args) -> int:
    raw = load_config(args.config)
    _reject_set_keys(raw, SWEEP_SETS, "sweep")
    for key in SWEEP_KEYS:
        if key in raw and not (isinstance(raw[key], list) and raw[key]):
            raise ConfigError(f"config key {key!r} must be a list with at least one entry")
    policies = raw.get("policies", list(mld.POLICIES))
    link_sets = raw.get("link_sets", [ScenarioConfig.links])
    sta_counts = raw.get("sta_counts")
    if not sta_counts:
        raise ConfigError("sweep config requires key 'sta_counts'")
    if any(type(n) is not int or n < 1 for n in sta_counts):
        raise ConfigError("config key 'sta_counts' must be a list of positive integers")
    base_cfg = resolve_config(raw, seeds=args.seeds, extra_keys=SWEEP_KEYS)
    cells = {}  # (policy, links, n) -> checked config; a repeated cell runs once
    for policy in policies:
        for name in link_sets:
            try:
                check_choice("each of config key 'policies'", policy, mld.POLICIES)
                check_choice("each of config key 'link_sets'", name, LINK_SETS)
                links = equivalent_single_link(name) if policy == mld.SL else name
                for n in sta_counts:
                    if (policy, links, n) not in cells:
                        cells[policy, links, n] = replace(
                            base_cfg, policy=policy, links=links, n_sta=n)
            except ValueError as e:
                raise ConfigError(f"sweep cell ({policy}, {name}): {e}")
    kinds = [s.kind for s in streams_of(base_cfg)]

    out_dir = make_out_dir(args.out)
    t0 = time.perf_counter()
    header = ["policy", "links", "n_sta"]
    header += [f"{k}_p99_us" for k in kinds] + ["overall"]
    lines = [",".join(header)]
    failures = 0
    queue = list(cells.values())
    with seed_pool(args.workers) as pool:
        for i, ((policy, links, n), cfg) in enumerate(cells.items()):
            try:
                pool.prefetch(*queue[i:i + 2])  # this cell, and the next behind it
                verdicts = evaluate(run_seeds(cfg, workers=args.workers), streams_of(cfg))
                p99s = [format_delay(v.worst_p99_us) for v in verdicts]
                overall = "PASS" if all_pass(verdicts) else "FAIL"
            except Exception as e:
                log.error("sweep cell (%s, %s, %d) failed: %s", policy, links, n, e)
                p99s = ["ERROR"] * len(kinds)
                overall = "ERROR"
                failures += 1
                pool.close()  # a dead worker breaks the pool: the next cell starts anew
            lines.append(",".join([policy, links, str(n)] + p99s + [overall]))
            log.info("sweep cell done: %s", lines[-1])
    write_atomic(out_dir / "sweep.csv", "\n".join(lines) + "\n")
    echo = config_to_dict(base_cfg, omit=SWEEP_SETS)
    echo.update({"policies": list(policies), "link_sets": list(link_sets),
                 "sta_counts": list(sta_counts)})
    write_manifest(out_dir, "sweep", args.config, echo,
                   time.perf_counter() - t0)
    if failures:
        print(f"warning: {failures} sweep cell(s) failed, see log")
    print(f"wrote {len(lines) - 1} sweep rows to {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _seed_list(text: str) -> tuple:
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        seeds = ()
    if not seeds:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers, got {text!r}")
    return seeds


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(f"expects a positive integer, got {text!r}")
    return workers


class _Parser(argparse.ArgumentParser):
    """Raises every usage error as a ConfigError, which main maps to exit 1."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlosim",
        description="Multi-link 802.11 AR-traffic simulator")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
            ("run", cmd_run, "simulate one configuration over its seeds"),
            ("capacity", cmd_capacity,
             "find the largest station count whose streams all pass"),
            ("sweep", cmd_sweep,
             "run a policies x link-sets x station-counts cross-product")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=os.environ.get("MLOSIM_OUT", "out"),
                       help="output directory (default $MLOSIM_OUT or ./out)")
        p.add_argument("--seeds", type=_seed_list, default=None,
                       help="comma-separated seed list overriding the config")
        p.add_argument("--workers", type=_worker_count, default=os.cpu_count() or 1,
                       help="max parallel seed runs (default: CPU count)")
        p.add_argument("--log-level", default="warning",
                       choices=("debug", "info", "warning", "error"))
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                            format="%(levelname)s %(name)s: %(message)s")
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - last-resort mapping to exit code
        log.exception("internal error")
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
