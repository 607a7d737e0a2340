"""Heap hygiene: cancelled entries are lazily dropped, never fired or counted.

The optimized kernel uses lazy deletion — ``cancel()`` flags the entry and
the drain loop discards it when its bucket comes due.  These tests pin the
observable consequences: a cancelled entry never fires, never inflates
``pending`` / ``len(sim)``, never bumps the observed dispatch counter, and
the wheel's internal structures drain back to empty.
"""

from __future__ import annotations

from repro.obs import observe
from repro.sim.engine import Simulator


def test_cancelled_events_dropped_without_firing():
    sim = Simulator()
    fired = []
    live = [sim.schedule_at(float(i), lambda i=i: fired.append(i)) for i in range(10)]
    dead = [sim.schedule_at(float(i), lambda: fired.append("dead")) for i in range(10)]
    for event in dead:
        event.cancel()
    sim.run_until(20.0)
    assert fired == list(range(10))
    assert all(event.canceled for event in dead)
    assert sim.pending == 0
    del live


def test_pending_never_counts_cancelled_entries():
    sim = Simulator()
    events = [sim.schedule_at(5.0, lambda: None) for _ in range(8)]
    assert sim.pending == 8
    for event in events[:5]:
        event.cancel()
    # Lazily deleted: the entries still physically sit in the queue, but
    # introspection must not count them.
    assert sim.pending == 3
    events[0].cancel()  # double-cancel must not double-subtract
    assert sim.pending == 3
    sim.run_until(10.0)
    assert sim.pending == 0


def test_len_matches_pending_on_fast_kernel():
    sim = Simulator()
    events = [sim.schedule_at(1.0, lambda: None) for _ in range(4)]
    events[0].cancel()
    assert len(sim) == sim.pending == 3
    sim.run_until(2.0)
    assert len(sim) == 0


def test_dispatch_counter_never_counts_cancelled_events():
    with observe() as obs:
        sim = Simulator()
        for i in range(6):
            sim.schedule_at(float(i), lambda: None)
        for i in range(4):
            sim.schedule_at(float(i), lambda: None).cancel()
        sim.run_until(10.0)
    metrics = obs.snapshot()["metrics"]
    assert metrics["counters"]["sim.events_dispatched"] == 6


def test_wheel_internals_drain_clean():
    """After a full drain the kernel's wheel holds no garbage: no
    leftover timestamps in the heap, no buckets, cancelled or otherwise."""
    sim = Simulator()
    for i in range(50):
        event = sim.schedule_at(float(i % 7), lambda: None)
        if i % 3 == 0:
            event.cancel()
    sim.run_until(100.0)
    assert sim._times == []
    assert sim._buckets == {}
    assert sim.pending == 0


def test_all_cancelled_bucket_is_discarded_by_step():
    """step() must skip over a bucket whose entries were all cancelled and
    fire the next live event instead of reporting an empty queue."""
    sim = Simulator()
    fired = []
    for _ in range(3):
        sim.schedule_at(1.0, lambda: fired.append("dead")).cancel()
    sim.schedule_at(2.0, lambda: fired.append("live"))
    assert sim.step() is True
    assert fired == ["live"]
    assert sim.now == 2.0
    assert sim.step() is False


def test_cancel_from_within_same_timestamp_bucket():
    """An action cancelling a later event at the *same* timestamp prevents
    that event from firing, even though both sit in one wheel bucket."""
    sim = Simulator()
    fired = []
    victim = {}

    def assassin():
        fired.append("assassin")
        victim["event"].cancel()

    sim.schedule_at(1.0, assassin)  # lower seq: fires before the victim
    victim["event"] = sim.schedule_at(1.0, lambda: fired.append("victim"))
    sim.run_until(2.0)
    assert fired == ["assassin"]
    assert victim["event"].canceled
    assert sim.pending == 0
