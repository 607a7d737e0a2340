"""Property tests for the kernel's ordering invariants.

The kernel keeps a hashed timer wheel (a heap of distinct timestamps plus
FIFO buckets) instead of the seed's event heap.  These properties pin the
contract the experiments depend on, and check it differentially: the same
random program must fire identically on the kernel and on
:class:`SortedListKernel`, the contract written out as a list kept sorted
by ``(time, seq)``.
"""

from __future__ import annotations

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Process, Signal, Simulator


class _Entry(list):
    """``[time, seq, action]``; cancelling clears the action."""

    def cancel(self):
        self[2] = None


class SortedListKernel:
    """The ordering oracle: fire in ``(time, seq)`` order, skip cancelled."""

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._seq = 0

    def schedule_at(self, time, action):
        entry = _Entry((time, self._seq, action))
        self._seq += 1
        bisect.insort(self._queue, entry)
        return entry

    def schedule(self, delay, action):
        return self.schedule_at(self.now + delay, action)

    def run_until(self, horizon):
        while self._queue and self._queue[0][0] <= horizon:
            self.now, _, action = self._queue.pop(0)
            if action is not None:
                action()
        self.now = horizon


# Millisecond-ish timestamps; bounded so run_until horizons stay cheap.
times = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@given(ts=st.lists(times, min_size=1, max_size=40))
@settings(max_examples=100)
def test_equal_timestamps_fire_in_schedule_order(ts):
    """FIFO tie-break: (time, seq) order, stable for equal timestamps."""
    sim = Simulator()
    fired = []
    for i, t in enumerate(ts):
        sim.schedule_at(t, lambda i=i: fired.append(i))
    sim.run_until(100.0)
    expected = [i for __, i in sorted((t, i) for i, t in enumerate(ts))]
    assert fired == expected


@given(
    ts=st.lists(times, min_size=1, max_size=40),
    cancel_mask=st.lists(st.booleans(), min_size=1, max_size=40),
)
@settings(max_examples=100)
def test_cancel_before_fire_is_idempotent_and_silent(ts, cancel_mask):
    """Cancelled events never fire, however many times they're cancelled,
    and the survivors still fire in (time, seq) order."""
    sim = Simulator()
    fired = []
    events = [
        sim.schedule_at(t, lambda i=i: fired.append(i))
        for i, t in enumerate(ts)
    ]
    cancelled = set()
    for i, (event, cancel) in enumerate(zip(events, cancel_mask)):
        if cancel:
            event.cancel()
            event.cancel()  # idempotent: double-cancel must be harmless
            cancelled.add(i)
    sim.run_until(100.0)
    expected = [
        i
        for __, i in sorted((t, i) for i, t in enumerate(ts))
        if i not in cancelled
    ]
    assert fired == expected


@given(n=st.integers(min_value=1, max_value=30), at=times)
@settings(max_examples=100)
def test_signal_wakes_waiters_in_registration_order(n, at):
    sim = Simulator()
    sig = Signal(sim)
    woken = []
    for i in range(n):
        sig.add_waiter(lambda value, i=i: woken.append((i, value)))
    sim.schedule_at(at, lambda: sig.succeed("v"))
    sim.run_until(at + 1.0)
    assert woken == [(i, "v") for i in range(n)]


@given(
    interval=st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
    cancel_at=st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
)
@settings(max_examples=100)
def test_cancel_while_queued_in_timer_lane(interval, cancel_at):
    """Stopping a periodic task cancels the tick sitting in the wheel: no
    tick after the stop time ever fires, and the kernel observes the
    oracle's tick sequence (stop-vs-tick tie-breaks included)."""
    sim = Simulator()
    ticks = []
    task = sim.every(interval, lambda: ticks.append(sim.now))
    sim.schedule_at(cancel_at, task.stop)
    sim.run_until(60.0)

    oracle = SortedListKernel()
    expected = []
    queued = {}

    def tick():
        expected.append(oracle.now)
        queued["tick"] = oracle.schedule(interval, tick)

    queued["tick"] = oracle.schedule(interval, tick)
    oracle.schedule_at(cancel_at, lambda: queued["tick"].cancel())
    oracle.run_until(60.0)

    assert ticks == expected
    assert all(t <= cancel_at for t in ticks)
    assert ticks == sorted(set(ticks))  # strictly increasing


# -- differential: random programs, identical firing sequences ----------------


@given(
    program=st.lists(
        st.tuples(times, st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100)
def test_random_schedule_cancel_programs_fire_identically(program):
    """Run one random schedule/cancel program on the kernel and the oracle;
    the observed (time, id) firing sequences must be exactly equal."""

    def execute(sim):
        fired = []
        events = []
        for i, (t, op) in enumerate(program):
            event = sim.schedule_at(t, lambda i=i: fired.append((sim.now, i)))
            events.append(event)
            if op == 1 and events:
                events[i // 2].cancel()
            elif op == 2:
                event.cancel()
            elif op == 3 and i % 3 == 0:
                # Nested schedule from inside an action, same timestamp.
                def chain(i=i, t=t):
                    fired.append((sim.now, 1000 + i))
                sim.schedule_at(t, chain)
        sim.run_until(100.0)
        return fired

    assert execute(Simulator()) == execute(SortedListKernel())


@given(
    sleeps=st.lists(
        st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=50)
def test_process_sleep_sequences_match_reference(sleeps):
    sim = Simulator()
    log = []

    def proc():
        for s in sleeps:
            yield s
            log.append(round(sim.now, 9))

    Process(sim, proc())
    sim.run_until(1_000.0)

    # The oracle wakes the process at t=0, then once per sleep.
    oracle = SortedListKernel()
    expected = []
    remaining = list(sleeps)

    def wake(first=False):
        if not first:
            expected.append(round(oracle.now, 9))
        if remaining:
            oracle.schedule(remaining.pop(0), wake)

    oracle.schedule(0.0, lambda: wake(first=True))
    oracle.run_until(1_000.0)
    assert log == expected
