"""Unit tests for the physical frame pool."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.memory import DEFAULT_PAGE_SIZE, FramePool
from repro.units import kb, mb


def test_frame_count():
    pool = FramePool(mb(1))
    assert pool.total_frames == 256
    assert pool.free_frames == 256
    assert pool.used_frames == 0


def test_page_size_default():
    assert FramePool(mb(1)).page_size == DEFAULT_PAGE_SIZE == 4096


def test_too_small_pool_rejected():
    with pytest.raises(MemoryError_):
        FramePool(100)
    with pytest.raises(MemoryError_):
        FramePool(mb(1), page_size=0)


def test_allocate_and_release():
    pool = FramePool(kb(8))
    a = pool.allocate()
    b = pool.allocate()
    assert a is not None and b is not None
    assert a != b
    assert pool.allocate() is None  # exhausted
    pool.release(a)
    assert pool.free_frames == 1
    assert pool.allocate() == a


def test_release_clears_frame_state():
    pool = FramePool(kb(8))
    f = pool.allocate()
    pool.dirty[f] = 1
    pool.owner[f] = object()
    pool.vpn[f] = 3
    pool.release(f)
    view = pool.frame(f)
    assert view.owner is None and view.vpn is None and not view.dirty
    assert view.free and not view.pinned


def test_frame_view_reads_the_columns():
    pool = FramePool(kb(16))
    owner = object()
    f = pool.allocate()
    pool.owner[f] = owner
    pool.vpn[f] = 7
    pool.dirty[f] = 1
    view = pool.frame(f)
    assert (view.index, view.owner, view.vpn, view.dirty) == (f, owner, 7, True)
    assert not view.free and not view.pinned
    never_used = pool.frame(pool.total_frames - 1)
    assert never_used.free and never_used.owner is None
    with pytest.raises(MemoryError_):
        pool.frame(pool.total_frames)


def test_release_of_never_allocated_frame_rejected():
    pool = FramePool(kb(8))
    with pytest.raises(MemoryError_):
        pool.release(0)
    with pytest.raises(MemoryError_):
        pool.release(-1)


def test_fresh_run_is_a_range():
    pool = FramePool(kb(32))
    assert pool.allocate_run(3) == range(0, 3)
    pool.release(1)
    run = pool.allocate_run(3)  # the released frame first, then fresh ones
    assert list(run) == [1, 3, 4]


def test_columns_are_packed_8_byte_and_1_byte():
    pool = FramePool(kb(64))
    pool.allocate_run(5)
    pool.release(2)
    assert pool.vpn.itemsize == 8 and len(pool.vpn) == 5
    assert pool._released.itemsize == 8
    assert isinstance(pool.dirty, bytearray) and len(pool.dirty) == 5
    assert isinstance(pool.state, bytearray) and len(pool.state) == 5
    assert len(pool.owner) == 5  # grown to the high-water mark only


def test_double_free_rejected():
    pool = FramePool(kb(8))
    f = pool.allocate()
    pool.release(f)
    with pytest.raises(MemoryError_):
        pool.release(f)


def test_pin_reserves_frames():
    pool = FramePool(mb(1))
    pinned = pool.pin(kb(12))  # 3 pages
    assert pinned == 3
    assert pool.free_frames == 253
    assert sum(pool.frame(i).pinned for i in range(pool.total_frames)) == 3


def test_pin_rounds_up():
    pool = FramePool(mb(1))
    assert pool.pin(1) == 1


def test_pin_beyond_capacity_rejected():
    pool = FramePool(kb(8))
    with pytest.raises(MemoryError_):
        pool.pin(kb(12))


def test_pinned_frame_cannot_be_released():
    pool = FramePool(kb(8))
    pool.pin(kb(4))
    pinned = next(i for i in range(pool.total_frames) if pool.frame(i).pinned)
    with pytest.raises(MemoryError_):
        pool.release(pinned)


class EagerPool:
    """Reference pool: every frame index exists up front, as a free list.

    The free list is all indices reversed, so pops hand out the lowest
    index first, and released indices go back on top (LIFO).
    """

    def __init__(self, total_frames):
        self.free = list(reversed(range(total_frames)))
        self.pinned = set()

    def allocate(self):
        return self.free.pop() if self.free else None

    def release(self, index):
        self.free.append(index)

    def pin(self, npages):
        if npages > len(self.free):
            raise MemoryError_("no room")
        for _ in range(npages):
            self.pinned.add(self.free.pop())


pool_programs = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.integers(1, 6)),
        st.tuples(st.just("allocate_run"), st.integers(0, 8)),
        st.tuples(st.just("release"), st.integers(0, 50)),
        st.tuples(st.just("pin"), st.integers(0, kb(24))),
        st.tuples(st.just("double_free"), st.integers(0, 50)),
        st.tuples(st.just("release_pinned"), st.just(0)),
    ),
    max_size=60,
)


@given(st.integers(1, 24), pool_programs)
def test_lazy_pool_matches_eager_reference(total_frames, program):
    """Same indices, counts and exhaustion as the eager pool, and after
    every step a view of every frame agrees with it on pinned and free."""
    pool = FramePool(kb(4) * total_frames)
    reference = EagerPool(total_frames)
    held = []  # frames allocated and not yet released
    released = []  # frames on the free list, most recent last
    for op, arg in program:
        if op == "allocate":
            for _ in range(arg):
                frame = pool.allocate()
                expected = reference.allocate()
                if expected is None:
                    assert frame is None
                    break
                assert frame == expected and not pool.frame(frame).free
                if frame in released:
                    released.remove(frame)
                held.append(frame)
        elif op == "allocate_run":
            if arg > len(reference.free):
                with pytest.raises(MemoryError_):
                    pool.allocate_run(arg)
            else:
                run = pool.allocate_run(arg)
                expected = [reference.allocate() for _ in range(arg)]
                assert list(run) == expected
                views = [pool.frame(f) for f in run]
                assert not any(v.free or v.dirty or v.owner for v in views)
                released = [f for f in released if f not in run]
                held += run
        elif op == "release" and held:
            frame = held.pop(arg % len(held))
            pool.release(frame)
            reference.release(frame)
            released.append(frame)
        elif op == "pin":
            npages = -(-arg // kb(4))
            if npages > len(reference.free):
                with pytest.raises(MemoryError_):
                    pool.pin(arg)
            else:
                assert pool.pin(arg) == npages
                reference.pin(npages)
                released = [f for f in released if not pool.frame(f).pinned]
        elif op == "double_free" and released:
            with pytest.raises(MemoryError_):
                pool.release(released[arg % len(released)])
        elif op == "release_pinned" and reference.pinned:
            pinned = min(reference.pinned)
            with pytest.raises(MemoryError_):
                pool.release(pinned)
        views = [pool.frame(i) for i in range(total_frames)]
        assert [v.index for v in views] == list(range(total_frames))
        assert {v.index for v in views if v.pinned} == reference.pinned
        assert {v.index for v in views if v.free} == set(reference.free)
        assert pool.free_frames == len(reference.free)
        assert pool.used_frames == total_frames - len(reference.free)
    # Drain: the rest comes out in exactly the reference order.
    while True:
        frame = pool.allocate()
        expected = reference.allocate()
        assert frame == expected
        if expected is None:
            break
