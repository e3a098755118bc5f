"""Delay accounting and the pass/fail machinery built on it.

A frame either finishes with a delay in microseconds or is LOST (retry
exhaustion, buffer overflow, or still unfinished at the horizon).  LOST is
None in memory and the word LOST in files.  It sorts above every finite
delay, so a station with more than 1% lost frames cannot pass a
99th-percentile check no matter how fast the rest was delivered.

The headline metric mirrors the evaluation procedure: per-station p99
over seed-merged samples, worst station compared against the stream's
delay budget; a capacity search (in `cli`) raises the station count until
a stream misses its budget, and its result is formatted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .traffic import UNSET, StreamConfig

LOST = None


class DelayRecord(NamedTuple):
    """One delays.csv row; the field order is the column order."""
    seed: int
    station: int
    stream: str
    frame_index: int
    delay_us: int | None


def record(frame, delay_us):
    """Set a frame's one outcome: its delay in microseconds, or LOST."""
    if frame.delay_us != UNSET:
        raise RuntimeError(f"frame {(frame.station, frame.stream.kind, frame.index)} "
                           "recorded twice")
    frame.delay_us = delay_us


def frame_rows(frames, seed: int) -> list[DelayRecord]:
    """One row per frame, sorted by (station, stream, frame index); a frame
    with no outcome yet was unfinished at the horizon and counts as LOST.
    One seed and unique (station, stream, frame index): plain tuple order.
    """
    rows = [DelayRecord(seed, f.station, f.stream.kind, f.index,
                        LOST if f.delay_us == UNSET else f.delay_us)
            for f in frames]
    rows.sort()
    return rows


def _sort_key(delay) -> tuple:
    """Orders delays ascending with LOST above every finite one."""
    return (delay is LOST, delay or 0)


def percentile(samples: list, p: float) -> int | None:
    """Nearest-rank percentile of delays, LOST sorting above every one.

    Sample at 1-based index ceil(p*N) of the ascending sort.  The epsilon
    guards against float noise in p*N landing a hair above an integer.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    rank = math.ceil(p * len(samples) - 1e-9)
    finite = sorted(d for d in samples if d is not LOST)
    return finite[rank - 1] if rank <= len(finite) else LOST


@dataclass
class StreamVerdict:
    stream: str
    worst_p99_us: int | None
    pdb_us: int
    passed: bool
    station_p99: dict


def verdict(records: list, stream_kind: str, pdb_us: int) -> StreamVerdict:
    """Worst per-station p99 for one stream, merged across seeds."""
    by_station: dict[int, list] = {}
    for r in records:
        if r.stream == stream_kind:
            by_station.setdefault(r.station, []).append(r.delay_us)
    if not by_station:
        raise ValueError(f"no records for stream {stream_kind!r}")
    station_p99 = {sta: percentile(v, 0.99) for sta, v in sorted(by_station.items())}
    worst = max(station_p99.values(), key=_sort_key)
    passed = worst is not LOST and worst <= pdb_us
    return StreamVerdict(stream_kind, worst, pdb_us, passed, station_p99)


def evaluate(records: list, streams: list[StreamConfig]) -> list[StreamVerdict]:
    return [verdict(records, s.kind, s.pdb_us) for s in streams]


def all_pass(verdicts: list[StreamVerdict]) -> bool:
    return all(v.passed for v in verdicts)


def export_ccdf(records: list, stream_kind: str) -> list[tuple[int, float]]:
    """Pooled empirical CCDF: P(delay > d) at each distinct finite delay.

    LOST frames keep the tail from reaching zero (residual floor).
    """
    delays = [r.delay_us for r in records if r.stream == stream_kind]
    if not delays:
        raise ValueError(f"no records for stream {stream_kind!r}")
    finite = sorted(d for d in delays if d is not LOST)
    n = len(delays)
    rows = []
    seen = 0
    i = 0
    while i < len(finite):
        d = finite[i]
        while i < len(finite) and finite[i] == d:
            seen += 1
            i += 1
        rows.append((d, (n - seen) / n))
    return rows


@dataclass
class CapacityResult:
    policy: str
    links: str
    max_sta: int
    per_n: list  # (n, [StreamVerdict])


# -- file formats ---------------------------------------------------------

def format_delay(delay) -> str:
    if delay is LOST:
        return "LOST"
    return str(int(delay))


def format_records(records: list[DelayRecord]) -> str:
    lines = ["seed,station,stream,frame_index,delay_us"]
    for r in records:
        lines.append(f"{r.seed},{r.station},{r.stream},{r.frame_index},{format_delay(r.delay_us)}")
    return "\n".join(lines) + "\n"


def parse_records(text: str) -> list[DelayRecord]:
    records = []
    lines = text.strip().splitlines()
    for line in lines[1:]:
        seed, sta, stream, idx, delay = line.split(",")
        records.append(DelayRecord(int(seed), int(sta), stream, int(idx),
                                   LOST if delay == "LOST" else int(delay)))
    return records


def format_ccdf(rows: list[tuple[int, float]]) -> str:
    lines = ["delay_us,ccdf"]
    for d, c in rows:
        lines.append(f"{d},{c:.10g}")
    return "\n".join(lines) + "\n"


def format_summary(verdicts: list[StreamVerdict]) -> str:
    lines = []
    for v in verdicts:
        lines.append(f"stream={v.stream} worst_p99_us={format_delay(v.worst_p99_us)} "
                     f"pdb_us={v.pdb_us} verdict={'PASS' if v.passed else 'FAIL'}")
    lines.append(f"overall={'PASS' if all_pass(verdicts) else 'FAIL'}")
    return "\n".join(lines) + "\n"


def format_capacity(result: CapacityResult) -> str:
    lines = [f"policy={result.policy} links={result.links} max_sta={result.max_sta}"]
    for n, verdicts in result.per_n:
        parts = [f"n={n}", "pass" if all_pass(verdicts) else "fail"]
        for v in verdicts:
            parts.append(f"{v.stream}_p99_us={format_delay(v.worst_p99_us)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
