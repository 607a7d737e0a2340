"""Unit and property tests for page replacement policies."""

from collections import OrderedDict, deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.memory import ClockPolicy, FIFOPolicy, LRUPolicy, make_policy


def frames(n):
    return list(range(n))


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        a, b, c = frames(3)
        for f in (a, b, c):
            policy.insert(f)
        policy.access(a)  # order now b, c, a
        assert policy.select_victim() == b
        assert policy.select_victim() == c
        assert policy.select_victim() == a

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
            policy.access(0)

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
        assert policy.select_victim() == a

    def test_accessed_frame_survives_one_sweep(self):
        policy = ClockPolicy()
        a, b, c = frames(3)
        for f in (a, b, c):
            policy.insert(f)
        # Clear all reference bits via one full eviction cycle.
        assert policy.select_victim() == a
        policy.access(b)  # re-reference b
        assert policy.select_victim() == c

    def test_remove(self):
        policy = ClockPolicy()
        a, b = frames(2)
        policy.insert(a)
        policy.insert(b)
        policy.remove(a)
        assert policy.select_victim() == b

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
        assert policy.select_victim() == a

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


@pytest.mark.parametrize("name", ["lru", "clock", "fifo"])
def test_contiguous_run_links_like_a_list(name):
    """A ``range`` run (linked by slices) evicts like the same frames as
    a list (linked one insert at a time), after earlier frames."""
    by_range, by_list = make_policy(name), make_policy(name)
    for policy in (by_range, by_list):
        policy.insert(9)
        policy.insert(2)
    by_range.insert_run(range(3, 8))
    by_list.insert_run([3, 4, 5, 6, 7])
    for policy in (by_range, by_list):
        policy.access(4)
        policy.remove(6)
    assert len(by_range) == len(by_list) == 6
    assert [by_range.select_victim() for _ in range(6)] == [
        by_list.select_victim() for _ in range(6)
    ]


def test_lru_columns_are_packed_8_byte():
    policy = LRUPolicy()
    policy.insert_run(range(4))
    assert policy._prev.itemsize == policy._next.itemsize == 8
    assert len(policy._prev) == 5  # the sentinel slot plus one per frame


# --- frozen references: the object-based policies --------------------------


class RefFrame:
    """The fields of the former per-frame object that policies used."""

    def __init__(self, index):
        self.index = index
        self.referenced = False


class RefLRU:
    """Exact LRU over frame objects, as an ordered map."""

    def __init__(self):
        self._order = OrderedDict()

    def insert(self, frame):
        if frame.index in self._order:
            raise MemoryError_(f"frame {frame.index} inserted twice")
        self._order[frame.index] = frame

    def access(self, frame):
        if frame.index not in self._order:
            raise MemoryError_(f"access to untracked frame {frame.index}")
        self._order.move_to_end(frame.index)

    def remove(self, frame):
        self._order.pop(frame.index, None)

    def select_victim(self):
        if not self._order:
            raise MemoryError_("no evictable frames")
        __, frame = self._order.popitem(last=False)
        return frame

    def __len__(self):
        return len(self._order)


class RefClock:
    """Second chance over frame objects, using their reference bits."""

    def __init__(self):
        self._ring = deque()
        self._members = {}

    def insert(self, frame):
        if frame.index in self._members:
            raise MemoryError_(f"frame {frame.index} inserted twice")
        frame.referenced = True
        self._ring.append(frame)
        self._members[frame.index] = frame

    def access(self, frame):
        if frame.index not in self._members:
            raise MemoryError_(f"access to untracked frame {frame.index}")
        frame.referenced = True

    def remove(self, frame):
        if self._members.pop(frame.index, None) is not None:
            self._ring.remove(frame)

    def select_victim(self):
        if not self._ring:
            raise MemoryError_("no evictable frames")
        while True:
            frame = self._ring.popleft()
            if frame.referenced:
                frame.referenced = False
                self._ring.append(frame)
            else:
                del self._members[frame.index]
                return frame

    def __len__(self):
        return len(self._ring)


class RefFIFO(RefLRU):
    """Arrival order over frame objects: an ordered map, access ignored."""

    def access(self, frame):
        if frame.index not in self._order:
            raise MemoryError_(f"access to untracked frame {frame.index}")


REFERENCES = {"lru": RefLRU, "clock": RefClock, "fifo": RefFIFO}

NUM_FRAMES = 12

policy_programs = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["insert", "access", "remove", "victim"]),
            st.integers(0, NUM_FRAMES - 1),
        ),
        # A run of consecutive frames, inserted as a ``range`` (the
        # slice-linked path) or as a list.
        st.tuples(
            st.sampled_from(["insert_range", "insert_list"]),
            st.tuples(st.integers(0, NUM_FRAMES - 1), st.integers(0, 5)),
        ),
    ),
    max_size=80,
)


@pytest.mark.parametrize("name", ["lru", "clock", "fifo"])
@given(program=policy_programs)
def test_packed_policy_matches_frozen_reference(name, program):
    """The packed policies evict the same victims, in the same order, as
    the object-based references, and reject the same misuse."""
    policy = make_policy(name)
    reference = REFERENCES[name]()
    objects = [RefFrame(i) for i in range(NUM_FRAMES)]
    tracked = set()

    def both(method, frame):
        """Call *method* on both; they must raise alike."""
        outcomes = []
        for target, arg in ((policy, frame), (reference, objects[frame])):
            try:
                getattr(target, method)(arg)
                outcomes.append(None)
            except MemoryError_:
                outcomes.append(MemoryError_)
        assert outcomes[0] == outcomes[1]
        return outcomes[0] is None

    for op, arg in program:
        if op == "insert":
            if both("insert", arg):
                tracked.add(arg)
        elif op in ("insert_range", "insert_list"):
            first, count = arg
            run = range(first, min(first + count, NUM_FRAMES))
            if tracked.isdisjoint(run):
                policy.insert_run(run if op == "insert_range" else list(run))
                for frame in run:
                    reference.insert(objects[frame])
                tracked.update(run)
            else:
                with pytest.raises(MemoryError_, match="inserted twice"):
                    policy.insert_run(run)
                return  # a rejected run may leave some of its frames linked
        elif op == "access":
            both("access", arg)
        elif op == "remove":
            both("remove", arg)
            tracked.discard(arg)
        elif tracked:
            victim = policy.select_victim()
            assert victim == reference.select_victim().index
            tracked.remove(victim)
        else:
            with pytest.raises(MemoryError_):
                policy.select_victim()
        assert len(policy) == len(reference) == len(tracked)
    # Drain: the remaining victims come out in the same order.
    while tracked:
        victim = policy.select_victim()
        assert victim == reference.select_victim().index
        tracked.remove(victim)
    assert len(policy) == 0


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
    for op, frame in operations:
        if op == "insert":
            if frame in model:
                continue
            policy.insert(frame)
            model.append(frame)
        elif op == "access":
            if frame not in model:
                continue
            policy.access(frame)
            model.remove(frame)
            model.append(frame)
        elif op == "remove":
            policy.remove(frame)
            if frame in model:
                model.remove(frame)
        else:  # victim
            if not model:
                continue
            victim = policy.select_victim()
            assert victim == model.pop(0)
    assert len(policy) == len(model)


@given(ops)
def test_clock_tracks_membership(operations):
    """Clock never evicts an untracked frame and keeps counts consistent."""
    policy = ClockPolicy()
    members = set()
    for op, frame in operations:
        if op == "insert":
            if frame in members:
                continue
            policy.insert(frame)
            members.add(frame)
        elif op == "access":
            if frame not in members:
                continue
            policy.access(frame)
        elif op == "remove":
            policy.remove(frame)
            members.discard(frame)
        else:
            if not members:
                continue
            victim = policy.select_victim()
            assert victim in members
            members.remove(victim)
    assert len(policy) == len(members)
