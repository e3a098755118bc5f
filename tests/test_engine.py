import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from mlosim.engine import SimulationError, Simulator, rng_stream


def test_schedule_at_current_time_dispatches():
    sim = Simulator()
    fired = []
    sim.schedule(0, fired.append, "a")
    sim.run_until(10)
    assert fired == ["a"]


def test_equal_fire_times_dispatch_in_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule(100, order.append, 1)
    sim.schedule(100, order.append, 2)
    sim.schedule(100, order.append, 3)
    sim.run_until(100)
    assert order == [1, 2, 3]


def test_clock_reads_fire_time_inside_handler():
    sim = Simulator()
    seen = []
    sim.schedule(5, lambda: seen.append(sim.now))
    sim.run_until(50)
    assert seen == [5]


def test_schedule_in_past_is_fatal():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run_until(10)
    with pytest.raises(SimulationError):
        sim.schedule(5, lambda: None)


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run_until(50_000_000) == 0
    assert sim.now == 50_000_000


def test_event_beyond_horizon_is_retained():
    sim = Simulator()
    fired = []
    sim.schedule(60_000_000, fired.append, 1)
    assert sim.run_until(50_000_000) == 0
    assert fired == []
    sim.run_until(60_000_000)
    assert fired == [1]


def test_self_rescheduling_tick_chain_count():
    # 4 ms ticks over 50 s: closed form 50e6 / 4000 = 12500 dispatches.
    sim = Simulator()
    tick_us = 4000
    horizon = 50 * 1_000_000

    def tick():
        if sim.now + tick_us <= horizon:
            sim.schedule(sim.now + tick_us, tick)

    sim.schedule(tick_us, tick)
    assert sim.run_until(horizon) == horizon // tick_us


def test_cancel_pending_event():
    sim = Simulator()
    fired = []
    h = sim.schedule(10, fired.append, 1)
    assert sim.cancel(h) is True
    sim.run_until(100)
    assert fired == []


def test_cancel_twice_returns_false():
    sim = Simulator()
    h = sim.schedule(10, lambda: None)
    assert sim.cancel(h) is True
    assert sim.cancel(h) is False


def test_cancel_after_dispatch_returns_false():
    sim = Simulator()
    h = sim.schedule(10, lambda: None)
    sim.run_until(10)
    assert sim.cancel(h) is False


class Payload:
    pass


def test_cancelled_event_releases_its_arguments():
    sim = Simulator()
    arg = Payload()
    ref = weakref.ref(arg)
    h = sim.schedule(10, lambda p: None, arg)
    del arg
    assert sim.cancel(h) is True  # the entry stays in the heap until popped
    gc.collect()
    assert ref() is None


def test_dispatched_event_releases_its_arguments():
    sim = Simulator()
    arg = Payload()
    ref = weakref.ref(arg)
    h = sim.schedule(10, lambda p: None, arg)  # the caller keeps the handle
    del arg
    sim.run_until(10)
    gc.collect()
    assert ref() is None
    assert sim.cancel(h) is False


def test_rng_same_seed_label_identical():
    a = rng_stream(42, "traffic.sta3.dl_video.size")
    b = rng_stream(42, "traffic.sta3.dl_video.size")
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_rng_distinct_labels_differ():
    a = rng_stream(42, "a")
    b = rng_stream(42, "b")
    assert [a.random() for _ in range(20)] != [b.random() for _ in range(20)]


def test_rng_distinct_seeds_differ():
    a = rng_stream(1, "a")
    b = rng_stream(2, "a")
    assert [a.random() for _ in range(20)] != [b.random() for _ in range(20)]


def test_simulator_stream_is_the_seeds_labeled_stream():
    s = Simulator(seed=7).stream("x")
    ref = rng_stream(7, "x")
    assert [s.random() for _ in range(20)] == [ref.random() for _ in range(20)]


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=200))
def test_dispatch_order_is_nondecreasing(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.schedule(t, lambda t=t: seen.append((sim.now, t)))
    sim.run_until(1000)
    assert len(seen) == len(times)
    dispatched = [now for now, _ in seen]
    assert dispatched == sorted(dispatched)
    # ties keep insertion order
    order_within = [t for now, t in seen]
    assert sorted(order_within) == sorted(times)


def test_no_event_loss_with_mixed_cancels():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(i % 50, fired.append, i) for i in range(200)]
    for h in handles[::3]:
        sim.cancel(h)
    sim.run_until(50)
    expected = [i for i in range(200) if i % 3 != 0]
    assert sorted(fired) == expected
