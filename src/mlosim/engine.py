"""Deterministic discrete-event kernel: clock, event queue, labeled RNG substreams.

All simulation timestamps are non-negative integer microseconds.  Events with
equal fire times dispatch in insertion order, so a run is fully reproducible.

Each event is a single heap entry, the list [fire_at, seq, fn, args], and
that entry is also the opaque handle schedule returns for cancel.  seq is
unique, so heap order is decided by the two integers alone and fn is never
compared.  Dispatch and cancel both clear fn and args: an entry whose fn is
None is inert, and it holds no reference to its arguments.

RNG substreams are addressed by (seed, label) so that e.g. traffic draws stay
identical across runs that only differ in MAC-level event interleaving.
Each label has one consumer, which requests its stream once and keeps it.
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
import itertools
import random

US_PER_SEC = 1_000_000


class SimulationError(Exception):
    """Fatal inconsistency in the event machinery (indicates a logic bug)."""


def rng_stream(seed, label) -> random.Random:
    """Independent random stream keyed by (seed, label).

    Same (seed, label) gives the identical draw sequence on every run and
    platform; distinct labels share no state.
    """
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


class Simulator:
    """Single-threaded event loop with an integer-microsecond clock.

    Instances share nothing; distinct seeds/configs may run in parallel
    processes, never threads of one instance.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self.now = 0
        self._heap = []
        self._next_seq = itertools.count().__next__

    def stream(self, label):
        """A fresh substream for (this simulation's seed, label)."""
        return rng_stream(self.seed, label)

    def schedule(self, at, fn, *args):
        """Enqueue fn(*args) to run at absolute time `at` (µs).

        Returns the event's heap entry, the handle to pass to cancel.
        """
        if at < self.now:
            raise SimulationError(f"schedule at t={at} before clock t={self.now}")
        entry = [at, self._next_seq(), fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, handle):
        """Make a pending event inert.  True if it was still pending."""
        if handle[2] is None:
            return False
        handle[2] = handle[3] = None
        return True

    def run_until(self, end):
        """Dispatch every event with fire_at <= end in order; clock ends at `end`.

        Returns the number of events dispatched (cancelled entries excluded).
        """
        heap = self._heap
        pop = heapq.heappop
        count = 0
        while heap and heap[0][0] <= end:
            entry = pop(heap)
            fire_at, _, fn, args = entry
            if fn is None:
                continue
            entry[2] = entry[3] = None
            self.now = fire_at
            fn(*args)
            count += 1
        self.now = end
        return count
