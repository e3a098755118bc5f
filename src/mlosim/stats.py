"""Delay accounting and the pass/fail machinery built on it.

A frame either finishes with a delay in microseconds or is LOST (retry
exhaustion, buffer overflow, or still unfinished at the horizon).  LOST is
None in memory and the word LOST in files.  It sorts above every finite
delay, so a station with more than 1% lost frames cannot pass a
99th-percentile check no matter how fast the rest was delivered.

Outcomes are columnar: per (seed, station, stream) one array('q') of
delays indexed by frame index, LOST spelled -1 (traffic.UNSET, so an
unfinished frame reads LOST as it stands) inside this module only.  Blocks
run in delays.csv order: seeds as listed, then station, then stream name.

The headline metric mirrors the evaluation procedure: per-station p99
over seed-merged samples, worst station compared against the stream's
delay budget; a capacity search (in `cli`) raises the station count until
a stream misses its budget, and its result is formatted here.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

from .traffic import UNSET, StreamConfig

LOST = None
_LOST_US = UNSET  # LOST in a column


class DelayRecord(NamedTuple):
    """One delays.csv row; the field order is the column order."""
    seed: int
    station: int
    stream: str
    frame_index: int
    delay_us: int | None


@dataclass
class Outcomes:
    """Frame outcomes: (seed, station, stream) -> delays, in delays.csv
    order; len() counts frames and iterating yields rows."""
    blocks: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(map(len, self.blocks.values()))

    def __iter__(self):
        for (seed, station, stream), delays in self.blocks.items():
            for i, d in enumerate(delays):
                yield DelayRecord(seed, station, stream, i, LOST if d == _LOST_US else d)

    def extend(self, rows) -> None:
        """Add another result's blocks, or rows each at its block's next index."""
        if isinstance(rows, Outcomes):
            self.blocks.update(rows.blocks)
            return
        for seed, station, stream, index, delay in rows:
            delays = self.blocks.setdefault((seed, station, stream), array("q"))
            if index != len(delays):
                raise ValueError(f"frame index {index} of {(seed, station, stream)}, "
                                 f"expected {len(delays)}")
            if delay is not LOST and delay < 0:
                raise ValueError(f"negative delay {delay}")
            delays.append(_LOST_US if delay is LOST else delay)


def record(frame, delay_us):
    """Set a frame's one outcome: its delay in microseconds, or LOST."""
    if frame.delay_us != UNSET:
        raise RuntimeError(f"frame {(frame.station, frame.stream.kind, frame.index)} "
                           "recorded twice")
    frame.delay_us = delay_us


def seed_outcomes(seed: int, chains: dict) -> Outcomes:
    """One block per (station, stream) chain; a frame still UNSET reads LOST."""
    return Outcomes({(seed, sta, kind): array("q", [_LOST_US if f.delay_us is LOST
                                                    else f.delay_us for f in chain])
                     for (sta, kind), chain in sorted(chains.items())})


def percentile(samples, p: float) -> int | None:
    """Nearest-rank percentile of delays, LOST sorting above every one.

    Sample at 1-based index ceil(p*N) of the ascending sort, LOST spelled
    None or as in a column.  The epsilon guards against float noise in p*N
    landing a hair above an integer.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    rank = math.ceil(p * len(samples) - 1e-9)
    finite = sorted(d for d in samples if d is not LOST and d != _LOST_US)
    return finite[rank - 1] if rank <= len(finite) else LOST


@dataclass
class StreamVerdict:
    stream: str
    worst_p99_us: int | None
    pdb_us: int
    passed: bool
    station_p99: dict


def _station_columns(records: Outcomes, stream_kind: str) -> dict[int, array]:
    by_station: dict[int, array] = {}
    for (_, station, stream), delays in records.blocks.items():
        if stream == stream_kind:
            by_station.setdefault(station, array("q")).extend(delays)
    if not by_station:
        raise ValueError(f"no records for stream {stream_kind!r}")
    return by_station


def verdict(records: Outcomes, stream_kind: str, pdb_us: int) -> StreamVerdict:
    """Worst per-station p99 for one stream, merged across seeds."""
    by_station = _station_columns(records, stream_kind)
    station_p99 = {sta: percentile(v, 0.99) for sta, v in sorted(by_station.items())}
    worst = LOST if LOST in station_p99.values() else max(station_p99.values())
    passed = worst is not LOST and worst <= pdb_us
    return StreamVerdict(stream_kind, worst, pdb_us, passed, station_p99)


def evaluate(records: Outcomes, streams: list[StreamConfig]) -> list[StreamVerdict]:
    return [verdict(records, s.kind, s.pdb_us) for s in streams]


def all_pass(verdicts: list[StreamVerdict]) -> bool:
    return all(v.passed for v in verdicts)


def export_ccdf(records: Outcomes, stream_kind: str) -> list[tuple[int, float]]:
    """Pooled empirical CCDF: P(delay > d) at each distinct finite delay.

    LOST frames keep the tail from reaching zero (residual floor).
    """
    ordered = sorted(d for delays in _station_columns(records, stream_kind).values()
                     for d in delays)
    n = len(ordered)
    lost = bisect_left(ordered, 0)
    return [(d, (n - (i + 1 - lost)) / n)
            for i, d in enumerate(ordered[lost:], lost)
            if i + 1 == n or ordered[i + 1] != d]


@dataclass
class CapacityResult:
    policy: str
    links: str
    max_sta: int
    per_n: list  # (n, [StreamVerdict])


# -- file formats ---------------------------------------------------------

def format_delay(delay) -> str:
    return "LOST" if delay is LOST else str(int(delay))


def format_records(records: Outcomes):
    """delays.csv as a header line, then one string of lines per block."""
    yield "seed,station,stream,frame_index,delay_us\n"
    for (seed, station, stream), delays in records.blocks.items():
        head = f"{seed},{station},{stream},"
        yield "".join([f"{head}{i},{'LOST' if d == _LOST_US else d}\n"
                       for i, d in enumerate(delays)])


def parse_records(text: str) -> Outcomes:
    """Read delays.csv back; ValueError names the first line that is wrong."""
    records = Outcomes()
    lines = text.strip().splitlines()[1:]
    try:  # every row before a bad one is in, so the bad one is line len + 2
        records.extend(DelayRecord(int(seed), int(sta), stream, int(idx),
                                   LOST if delay == "LOST" else int(delay))
                       for seed, sta, stream, idx, delay in (line.split(",") for line in lines))
    except ValueError as e:
        raise ValueError(f"delays.csv line {len(records) + 2}: {e}") from None
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
