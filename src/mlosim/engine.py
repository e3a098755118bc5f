"""Deterministic discrete-event kernel: clock, event queue, labeled RNG substreams.

All simulation timestamps are non-negative integer microseconds.  Events with
equal fire times dispatch in insertion order, so a run is fully reproducible.

RNG substreams are addressed by (seed, label) so that e.g. traffic draws stay
identical across runs that only differ in MAC-level event interleaving.
Labels used by the simulator:

    traffic.sta{i}.{kind}.size      frame size draws
    traffic.sta{i}.{kind}.jitter    arrival jitter draws
    deploy.pos / deploy.act         station placement / activation times
    mac.backoff.dev{d}.link{l}      backoff slot draws
    phy.err.link{l}                 per-MPDU corruption draws
    phy.rate.dev{d}.link{l}         rate-probe decisions
"""

import hashlib
import heapq
import random

US_PER_SEC = 1_000_000

_PENDING, _FIRED, _CANCELLED = 0, 1, 2


class SimulationError(Exception):
    """Fatal inconsistency in the event machinery (indicates a logic bug)."""


def rng_stream(seed, label) -> random.Random:
    """Independent random stream keyed by (seed, label).

    Same (seed, label) gives the identical draw sequence on every run and
    platform; distinct labels share no state.
    """
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


class EventHandle:
    """Queue entry; keep a reference to cancel the event later.

    The heap itself stores (fire_at, seq, handle) tuples so ordering is
    decided by integer comparison alone; seq breaks ties by insertion order
    and guarantees the handle is never compared.
    """

    __slots__ = ("fire_at", "seq", "fn", "args", "state")

    def __init__(self, fire_at, seq, fn, args):
        self.fire_at = fire_at
        self.seq = seq
        self.fn = fn
        self.args = args
        self.state = _PENDING


class Simulator:
    """Single-threaded event loop with an integer-microsecond clock.

    Instances share nothing; distinct seeds/configs may run in parallel
    processes, never threads of one instance.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self.now = 0
        self._heap = []
        self._seq = 0
        self._streams = {}

    def stream(self, label):
        """Cached per-label substream for this simulation's seed."""
        s = self._streams.get(label)
        if s is None:
            s = self._streams[label] = rng_stream(self.seed, label)
        return s

    def schedule(self, at, fn, *args):
        """Enqueue fn(*args) to run at absolute time `at` (µs)."""
        if at < self.now:
            raise SimulationError(f"schedule at t={at} before clock t={self.now}")
        h = EventHandle(at, self._seq, fn, args)
        heapq.heappush(self._heap, (at, self._seq, h))
        self._seq += 1
        return h

    def cancel(self, handle):
        """Make a pending event inert.  True if it was still pending."""
        if handle.state == _PENDING:
            handle.state = _CANCELLED
            handle.fn = handle.args = None
            return True
        return False

    def run_until(self, end):
        """Dispatch every event with fire_at <= end in order; clock ends at `end`.

        Returns the number of events dispatched (cancelled entries excluded).
        """
        heap = self._heap
        pop = heapq.heappop
        count = 0
        while heap and heap[0][0] <= end:
            fire_at, _, h = pop(heap)
            if h.state != _PENDING:
                continue
            h.state = _FIRED
            self.now = fire_at
            fn, args = h.fn, h.args
            h.fn = h.args = None
            fn(*args)
            count += 1
        self.now = end
        return count
