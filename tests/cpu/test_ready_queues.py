"""Differential test: the ready-summary bitmap against a linear level scan.

:class:`PriorityReadyQueues` finds the best non-empty level from an integer
bitmap.  The oracle below is the plain per-level scan it replaced; random
operation sequences over 100 levels must give the same answers from both.
As on a real CPU, a thread is pushed only while it is not already queued.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import PriorityReadyQueues, Thread
from repro.errors import SchedulerError

LEVELS = 100
POOL = 6


class LinearScanQueues:
    """Oracle: check every level, highest first, on each selection."""

    def __init__(self, levels):
        self.levels = levels
        self._queues = [deque() for _ in range(levels)]
        self._count = 0

    def push(self, thread, *, front=False):
        if front:
            self._queues[thread.priority].appendleft(thread)
        else:
            self._queues[thread.priority].append(thread)
        self._count += 1

    def pop_best(self):
        for priority in range(self.levels - 1, -1, -1):
            queue = self._queues[priority]
            if queue:
                self._count -= 1
                return queue.popleft()
        return None

    def remove(self, thread):
        for queue in self._queues:
            try:
                queue.remove(thread)
            except ValueError:
                continue
            self._count -= 1
            return True
        return False

    def ready_threads(self):
        out = []
        for priority in range(self.levels - 1, -1, -1):
            out.extend(self._queues[priority])
        return out

    def __len__(self):
        return self._count

    def __contains__(self, thread):
        return any(thread in queue for queue in self._queues)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(0, POOL - 1),
            st.integers(0, LEVELS - 1),
            st.booleans(),
        ),
        st.tuples(st.just("pop_best")),
        st.tuples(st.just("remove"), st.integers(0, POOL - 1)),
        st.tuples(st.just("ready_threads")),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(ops)
def test_bitmap_matches_linear_scan(sequence):
    pool = [Thread(f"t{i}") for i in range(POOL)]
    queues = PriorityReadyQueues(LEVELS)
    oracle = LinearScanQueues(LEVELS)
    for op in sequence:
        if op[0] == "push":
            _, index, priority, front = op
            if pool[index] in oracle:
                continue
            pool[index].priority = priority
            queues.push(pool[index], front=front)
            oracle.push(pool[index], front=front)
        elif op[0] == "pop_best":
            assert queues.pop_best() is oracle.pop_best()
        elif op[0] == "remove":
            thread = pool[op[1]]
            assert queues.remove(thread) == oracle.remove(thread)
        else:
            assert queues.ready_threads() == oracle.ready_threads()
        assert len(queues) == len(oracle)
        assert [t in queues for t in pool] == [t in oracle for t in pool]
    # Drain: both must hand out the remaining threads in the same order.
    while len(oracle):
        assert queues.pop_best() is oracle.pop_best()
    assert queues.pop_best() is None
    assert queues.ready_threads() == []


def test_push_rejects_out_of_range_priority():
    queues = PriorityReadyQueues(4)
    thread = Thread("t")
    for priority in (-1, 4):
        thread.priority = priority
        with pytest.raises(SchedulerError):
            queues.push(thread)
    assert len(queues) == 0
    assert queues.pop_best() is None


def test_rejects_zero_levels():
    with pytest.raises(SchedulerError):
        PriorityReadyQueues(0)
