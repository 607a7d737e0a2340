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
    assert a.index != b.index
    assert pool.allocate() is None  # exhausted
    pool.release(a)
    assert pool.free_frames == 1
    assert pool.allocate() is a


def test_release_clears_frame_state():
    pool = FramePool(kb(8))
    f = pool.allocate()
    f.dirty = True
    f.owner = object()
    f.vpn = 3
    pool.release(f)
    assert f.owner is None and f.vpn is None and not f.dirty


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
    assert sum(1 for f in pool.frames if f.pinned) == 3


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
    pinned = next(f for f in pool.frames if f.pinned)
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


@given(st.integers(1, 24), pool_programs, st.integers(0, 60))
def test_lazy_pool_matches_eager_reference(total_frames, program, build_at):
    """Same indices, counts and exhaustion as the eager pool.

    Reading ``pool.frames`` before step *build_at* builds every frame
    mid-program, which must not change what comes out afterwards.
    """
    pool = FramePool(kb(4) * total_frames)
    reference = EagerPool(total_frames)
    held = []  # frames allocated and not yet released
    released = []  # frames on the free list, most recent last
    for step, (op, arg) in enumerate(program):
        if step == build_at:
            frames = pool.frames
            assert [f.index for f in frames] == list(range(total_frames))
            assert {f.index for f in frames if f.pinned} == reference.pinned
            assert {f.index for f in frames if f.free} == set(reference.free)
        if op == "allocate":
            for _ in range(arg):
                frame = pool.allocate()
                expected = reference.allocate()
                if expected is None:
                    assert frame is None
                    break
                assert frame.index == expected and not frame.free
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
                assert [f.index for f in run] == expected
                assert not any(f.free or f.dirty or f.referenced for f in run)
                released = [f for f in released if f not in run]
                held += run
        elif op == "release" and held:
            frame = held.pop(arg % len(held))
            pool.release(frame)
            reference.release(frame.index)
            released.append(frame)
        elif op == "pin":
            npages = -(-arg // kb(4))
            if npages > len(reference.free):
                with pytest.raises(MemoryError_):
                    pool.pin(arg)
            else:
                assert pool.pin(arg) == npages
                reference.pin(npages)
                released = [f for f in released if not f.pinned]
        elif op == "double_free" and released:
            with pytest.raises(MemoryError_):
                pool.release(released[arg % len(released)])
        elif op == "release_pinned" and reference.pinned:
            pinned = next(f for f in pool.frames if f.pinned)
            with pytest.raises(MemoryError_):
                pool.release(pinned)
        assert pool.free_frames == len(reference.free)
        assert pool.used_frames == total_frames - len(reference.free)
    # Drain: the rest comes out in exactly the reference order.
    while True:
        frame = pool.allocate()
        expected = reference.allocate()
        assert (None if frame is None else frame.index) == expected
        if expected is None:
            break
