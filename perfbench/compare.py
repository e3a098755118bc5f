"""Compare benchmark result files of two commits.

    python3 perfbench/compare.py --a A1.json A2.json ... --b B1.json B2.json ...

Every file is a record written by run.py (perfbench/out/*.trace<T>.json)
for one workload.  A files come from the parent commit, B files from the
change, in run order, so A[i] and B[i] form pair i.  For each metric the
script prints both medians and quartiles, the relative change of the
median, and how many pairs B wins.  It then checks that the simulated
statistics of every file with the same base seed are identical, which a
host-speed change must keep.  Exit code 1 when they are not.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(paths):
    return [json.loads(Path(p).read_text()) for p in paths]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", nargs="+", required=True, help="parent commit results")
    p.add_argument("--b", nargs="+", required=True, help="changed commit results")
    args = p.parse_args(argv)
    a, b = load(args.a), load(args.b)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':32} {'A median':>12} {'A q1..q3':>23} {'B median':>12} "
          f"{'B q1..q3':>23} {'change':>8} wins")
    for name, unit_rec in a[0]["result"]["metrics"].items():
        xa = [r["result"]["metrics"][name]["value"] for r in a]
        xb = [r["result"]["metrics"][name]["value"] for r in b]
        qa, qb = quartiles(xa), quartiles(xb)
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(1 for va, vb in zip(xa, xb) if sign * (vb - va) > 0)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        print(f"{name:32} {qa[1]:12.6g} {qa[0]:11.5g}..{qa[2]:<10.5g} {qb[1]:12.6g} "
              f"{qb[0]:11.5g}..{qb[2]:<10.5g} {change:+8.2%} {wins}/{min(len(xa), len(xb))}"
              f" {unit_rec['unit']}")
    by_seed = {}
    for r in a + b:
        key = (r["environment"]["base_seed"], r["trace"])
        by_seed.setdefault(key, []).append(r["simulated"])
    same = True
    for (seed, trace), sims in sorted(by_seed.items()):
        if any(s != sims[0] for s in sims):
            same = False
            print(f"simulated statistics differ at base seed {seed} (trace {trace})")
    print("simulated statistics identical" if same else "SIMULATED STATISTICS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
