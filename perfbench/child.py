"""Child processes of the benchmark, each started in a fresh interpreter.

    child.py setup CONFIG SEEDS N_STA
        Import mlosim, resolve CONFIG, build scenario.Experiment for every
        seed (with n_sta forced to N_STA for capacity configs) and print
        {"setup_s": ..., "frames": {seed: {"sta,stream": count}}}.  The
        clock starts before the import.

    child.py trace SPANS_JSON CLI_ARG...
        Run `mlosim CLI_ARG...` in this process with tracer.install()
        applied, then write the trace records to SPANS_JSON.  Exits with
        the CLI's exit code.

mlosim is found through PYTHONPATH, which the benchmark points at src/.
"""

import json
import sys
import time


def setup(config_path, seeds_text, n_sta):
    t0 = time.perf_counter()
    from dataclasses import replace

    from mlosim import cli, scenario

    raw = cli.load_config(config_path)
    seeds = [int(s) for s in seeds_text.split(",")]
    cfg = cli.resolve_config(raw, seeds=seeds, extra_keys=cli.CAPACITY_KEYS)
    cfg = replace(cfg, n_sta=int(n_sta))
    experiments = [scenario.Experiment(cfg, seed) for seed in seeds]
    setup_s = time.perf_counter() - t0
    frames = {}
    for exp in experiments:
        per_stream = frames.setdefault(str(exp.seed), {})
        for f in exp.frames:
            key = f"{f.station},{f.stream.kind}"
            per_stream[key] = per_stream.get(key, 0) + 1
    print(json.dumps({"setup_s": setup_s, "frames": frames}))
    return 0


def trace(spans_path, cli_args):
    import tracer

    t = tracer.install()
    code = tracer.cli.main(cli_args)
    with open(spans_path, "w") as f:
        json.dump(t.snapshot(), f)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(*rest))
    if mode == "trace":
        sys.exit(trace(rest[0], rest[1:]))
    sys.exit(f"unknown mode {mode!r}")
