"""Unit and property tests for page replacement policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.memory import ClockPolicy, FIFOPolicy, LRUPolicy, make_policy
from repro.memory.physical import Frame


def frames(n):
    return [Frame(i) for i in range(n)]


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        a, b, c = frames(3)
        for f in (a, b, c):
            policy.insert(f)
        policy.access(a)  # order now b, c, a
        assert policy.select_victim() is b
        assert policy.select_victim() is c
        assert policy.select_victim() is a

    def test_select_removes_from_tracking(self):
        policy = LRUPolicy()
        (a,) = frames(1)
        policy.insert(a)
        policy.select_victim()
        assert len(policy) == 0

    def test_double_insert_rejected(self):
        policy = LRUPolicy()
        (a,) = frames(1)
        policy.insert(a)
        with pytest.raises(MemoryError_):
            policy.insert(a)

    def test_access_untracked_rejected(self):
        policy = LRUPolicy()
        with pytest.raises(MemoryError_):
            policy.access(Frame(0))

    def test_empty_victim_rejected(self):
        with pytest.raises(MemoryError_):
            LRUPolicy().select_victim()

    def test_remove_is_tolerant(self):
        policy = LRUPolicy()
        (a,) = frames(1)
        policy.remove(a)  # not tracked: no error
        policy.insert(a)
        policy.remove(a)
        assert len(policy) == 0


class TestClock:
    def test_second_chance(self):
        policy = ClockPolicy()
        a, b = frames(2)
        policy.insert(a)
        policy.insert(b)
        # Both referenced on insert: first sweep clears a and b, evicts a.
        assert policy.select_victim() is a

    def test_accessed_frame_survives_one_sweep(self):
        policy = ClockPolicy()
        a, b, c = frames(3)
        for f in (a, b, c):
            policy.insert(f)
        # Clear all reference bits via one full eviction cycle.
        assert policy.select_victim() is a
        policy.access(b)  # re-reference b
        assert policy.select_victim() is c

    def test_remove(self):
        policy = ClockPolicy()
        a, b = frames(2)
        policy.insert(a)
        policy.insert(b)
        policy.remove(a)
        assert policy.select_victim() is b

    def test_empty_victim_rejected(self):
        with pytest.raises(MemoryError_):
            ClockPolicy().select_victim()

    def test_double_insert_rejected(self):
        policy = ClockPolicy()
        (a,) = frames(1)
        policy.insert(a)
        with pytest.raises(MemoryError_):
            policy.insert(a)


class TestFIFO:
    def test_evicts_in_arrival_order_despite_access(self):
        policy = FIFOPolicy()
        a, b = frames(2)
        policy.insert(a)
        policy.insert(b)
        policy.access(a)
        assert policy.select_victim() is a

    def test_empty_victim_rejected(self):
        with pytest.raises(MemoryError_):
            FIFOPolicy().select_victim()


@pytest.mark.parametrize("name", ["lru", "clock", "fifo"])
def test_insert_run_matches_one_insert_per_frame(name):
    batched, single = make_policy(name), make_policy(name)
    run = frames(5)
    batched.insert_run(run)
    for frame in run:
        single.insert(frame)
    batched.access(run[1])
    single.access(run[1])
    assert [batched.select_victim() for _ in run] == [
        single.select_victim() for _ in run
    ]


@pytest.mark.parametrize("name", ["lru", "clock", "fifo"])
def test_insert_run_rejects_tracked_frame(name):
    policy = make_policy(name)
    a, b = frames(2)
    policy.insert(a)
    with pytest.raises(MemoryError_, match="inserted twice"):
        policy.insert_run([b, a])
    with pytest.raises(MemoryError_, match="inserted twice"):
        make_policy(name).insert_run([b, b])


def test_make_policy():
    assert isinstance(make_policy("lru"), LRUPolicy)
    assert isinstance(make_policy("clock"), ClockPolicy)
    assert isinstance(make_policy("fifo"), FIFOPolicy)
    with pytest.raises(MemoryError_):
        make_policy("arc")


# --- property tests: LRU against a reference model -------------------------

ops = st.lists(
    st.tuples(st.sampled_from(["insert", "access", "victim", "remove"]),
              st.integers(min_value=0, max_value=7)),
    max_size=60,
)


@given(ops)
def test_lru_matches_reference_model(operations):
    """Exact LRU must evict precisely in reference-recency order."""
    policy = LRUPolicy()
    model = []  # list of frame indices, least recent first
    pool = {i: Frame(i) for i in range(8)}
    for op, i in operations:
        frame = pool[i]
        if op == "insert":
            if i in model:
                continue
            policy.insert(frame)
            model.append(i)
        elif op == "access":
            if i not in model:
                continue
            policy.access(frame)
            model.remove(i)
            model.append(i)
        elif op == "remove":
            policy.remove(frame)
            if i in model:
                model.remove(i)
        else:  # victim
            if not model:
                continue
            victim = policy.select_victim()
            assert victim.index == model.pop(0)
    assert len(policy) == len(model)


@given(ops)
def test_clock_tracks_membership(operations):
    """Clock never evicts an untracked frame and keeps counts consistent."""
    policy = ClockPolicy()
    members = set()
    pool = {i: Frame(i) for i in range(8)}
    for op, i in operations:
        frame = pool[i]
        if op == "insert":
            if i in members:
                continue
            policy.insert(frame)
            members.add(i)
        elif op == "access":
            if i not in members:
                continue
            policy.access(frame)
        elif op == "remove":
            policy.remove(frame)
            members.discard(i)
        else:
            if not members:
                continue
            victim = policy.select_victim()
            assert victim.index in members
            members.remove(victim.index)
    assert len(policy) == len(members)
