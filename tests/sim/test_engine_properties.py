"""Property-based tests for the event kernel's ordering guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

times = st.lists(
    st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False),
    max_size=60,
)


@settings(max_examples=100)
@given(times)
def test_events_fire_in_timestamp_order(schedule_times):
    sim = Simulator()
    fired = []
    for t in schedule_times:
        sim.schedule_at(t, lambda t=t: fired.append((t, sim.now)))
    sim.run_until(2_000.0)
    # Every callback sees the clock at exactly its own timestamp...
    assert all(t == now for t, now in fired)
    # ...and firing order is non-decreasing in time.
    observed = [t for t, __ in fired]
    assert observed == sorted(observed)
    assert len(fired) == len(schedule_times)


@settings(max_examples=100)
@given(times, times)
def test_interleaved_scheduling_preserves_order(first_batch, second_batch):
    """Events scheduled from inside callbacks still fire in time order."""
    sim = Simulator()
    fired = []

    def note():
        fired.append(sim.now)

    for t in first_batch:
        sim.schedule_at(t, note)
    # At t=500, inject the second batch (only future times are legal).
    future = [t + 500.0 for t in second_batch]

    def inject():
        for t in future:
            sim.schedule_at(t, note)

    sim.schedule_at(500.0, inject)
    sim.run_until(3_000.0)
    assert fired == sorted(fired)
    assert len(fired) == len(first_batch) + len(second_batch)


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=59), max_size=60))
def test_equal_time_events_fire_fifo(indices):
    """Ties at one timestamp break by scheduling order, always."""
    sim = Simulator()
    fired = []
    for i, __ in enumerate(indices):
        sim.schedule_at(100.0, lambda i=i: fired.append(i))
    sim.run_until(200.0)
    assert fired == list(range(len(indices)))


@settings(max_examples=50)
@given(times, st.sets(st.integers(min_value=0, max_value=59)))
def test_cancellation_removes_exactly_the_cancelled(schedule_times, to_cancel):
    sim = Simulator()
    fired = []
    events = []
    for i, t in enumerate(schedule_times):
        events.append(sim.schedule_at(t, lambda i=i: fired.append(i)))
    for i in to_cancel:
        if i < len(events):
            events[i].cancel()
    sim.run_until(2_000.0)
    expected = [
        i for i in range(len(schedule_times)) if i not in to_cancel
    ]
    assert sorted(fired) == expected
