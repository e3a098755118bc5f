"""Output checks.  Each returns the seeds or probes whose operations failed.

An operation is one simulated seed of one run or capacity probe.  A check
that covers a whole file (a pinned digest, summary.txt, capacity.txt)
fails every operation of the command when it fails.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

RUN_FILES = ("delays.csv", "summary.txt")
CAPACITY_FILES = ("capacity.txt", "per_n.csv")


def digests(out_dir: Path, names) -> dict:
    """sha256 per output file; None for a missing file."""
    out = {}
    for name in names:
        p = out_dir / name
        out[name] = hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
    return out


def check_frames(delays_text: str, seeds, expected: dict) -> tuple[set, list]:
    """Every generated frame of every seed appears exactly once.

    expected maps str(seed) -> {"station,stream": frame count}, as the
    setup child reports it.  Returns (failed seeds, problems).
    """
    seen = {str(s): Counter() for s in seeds}
    problems = []
    lines = delays_text.splitlines()
    if not lines or lines[0] != "seed,station,stream,frame_index,delay_us":
        return set(seen), ["delays.csv header missing"]
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 5 or parts[0] not in seen:
            problems.append(f"bad delays.csv row {line!r}")
            return set(seen), problems
        seen[parts[0]][(parts[1], parts[2], parts[3])] += 1
    failed = set()
    for seed, rows in seen.items():
        want = set()
        for key, n in expected[seed].items():
            sta, stream = key.split(",")
            want.update((sta, stream, str(i)) for i in range(n))
        dup = sum(1 for c in rows.values() if c != 1)
        missing = len(want - rows.keys())
        extra = len(rows.keys() - want)
        if dup or missing or extra:
            failed.add(seed)
            problems.append(f"seed {seed}: {missing} frames missing, "
                            f"{extra} unknown, {dup} recorded twice")
    return failed, problems


def check_summary(delays_text: str, summary_text: str, streams) -> list:
    """summary.txt equals format_summary(evaluate(parse_records(delays.csv)))."""
    from mlosim.stats import evaluate, format_summary, parse_records

    want = format_summary(evaluate(parse_records(delays_text), streams))
    return [] if want == summary_text else ["summary.txt disagrees with delays.csv"]


def parse_capacity(capacity_text: str, per_n_text: str) -> tuple[int, dict, list]:
    """Cross-check capacity.txt against per_n.csv.

    Returns (max_sta, {n: {stream: p99 text}}, problems).
    """
    problems = []
    head, *probe_lines = capacity_text.splitlines()
    fields = dict(kv.split("=", 1) for kv in head.split())
    max_sta = int(fields["max_sta"])
    probes = {}
    passed = {}
    for line in probe_lines:
        n_field, verdict, *p99s = line.split()
        n = int(n_field.removeprefix("n="))
        passed[n] = verdict == "pass"
        probes[n] = {k.removesuffix("_p99_us"): v
                     for k, v in (p.split("=", 1) for p in p99s)}
    csv = {}
    csv_pass = {}
    for line in per_n_text.splitlines()[1:]:
        n, stream, p99, _pdb, verdict = line.split(",")
        csv.setdefault(int(n), {})[stream] = p99
        csv_pass[int(n)] = csv_pass.get(int(n), True) and verdict == "PASS"
    if csv != probes:
        problems.append("per_n.csv p99 values disagree with capacity.txt")
    if csv_pass != passed:
        problems.append("per_n.csv verdicts disagree with capacity.txt")
    ns = sorted(passed)
    if ns != list(range(1, len(ns) + 1)):
        problems.append(f"probes are not 1..N: {ns}")
    if any(not passed[n] for n in ns[:-1]):
        problems.append("search went on after a failing probe")
    want = ns[-1] if ns and passed[ns[-1]] else len(ns) - 1
    if max_sta != want:
        problems.append(f"max_sta={max_sta} but the probes give {want}")
    return max_sta, probes, problems
