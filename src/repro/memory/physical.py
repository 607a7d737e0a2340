"""Physical memory: a pool of page frames.

The unit of management is the **frame** — a physical page of ``page_size``
bytes.  Frames are either free, pinned (kernel/OS base usage that is never
paged, §5.1.1's "memory unavailable to user applications"), or owned by a
process page table.

A frame is an ``int`` index into the pool's columns; no Python object
stands for it on the fault path.  :meth:`FramePool.frame` builds a
:class:`Frame` read view of one index for inspection.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence

from ..errors import MemoryError_
from ..units import KB

#: The page size of both measured systems (i386): 4 KB.
DEFAULT_PAGE_SIZE = 4 * KB

#: Values of the pool's ``state`` column.
USED, FREE, PINNED = 0, 1, 2


class Frame:
    """A read view of one physical frame's columns (see :meth:`FramePool.frame`).

    A snapshot: it does not follow later changes to the pool.
    """

    __slots__ = ("index", "owner", "vpn", "dirty", "pinned", "free")

    def __init__(
        self,
        index: int,
        owner: Optional[object],
        vpn: Optional[int],
        dirty: bool,
        pinned: bool,
        free: bool,
    ) -> None:
        self.index = index
        self.owner = owner  #: the AddressSpace using it, or None
        self.vpn = vpn  #: virtual page number within owner, or None
        self.dirty = dirty
        self.pinned = pinned
        self.free = free

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.index} owner={self.owner!r} vpn={self.vpn}>"


class FramePool:
    """A fixed pool of physical frames with a free list.

    Frame state lives in columns indexed by frame number: ``owner`` (the
    owning address space, or None), ``vpn`` (its virtual page number
    there), ``dirty`` and ``state`` (:data:`USED`, :data:`FREE` or
    :data:`PINNED`).  The columns grow to the high-water mark of frames
    ever handed out.  The free list is a stack of released frames over
    that mark, so frames come out in exactly the order of a pool built up
    front: released frames are reused LIFO, then the lowest never-used
    index.
    """

    def __init__(self, total_bytes: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise MemoryError_("page size must be positive")
        if total_bytes < page_size:
            raise MemoryError_("physical memory smaller than one page")
        self.page_size = page_size
        self.total_frames = total_bytes // page_size
        self.owner: List[Optional[object]] = []
        self.vpn = array("q")
        self.dirty = bytearray()
        self.state = bytearray()
        self._released = array("q")  #: LIFO stack of freed frames

    @property
    def _next(self) -> int:
        """Frames ``[_next, total_frames)`` were never handed out."""
        return len(self.state)

    def _grow(self, count: int, state: int) -> range:
        """Extend every column by *count* never-used frames in *state*."""
        start = len(self.state)
        self.owner += [None] * count
        self.vpn.frombytes(bytes(8 * count))
        self.dirty += bytes(count)
        self.state += bytes([state]) * count
        return range(start, start + count)

    def frame(self, index: int) -> Frame:
        """A :class:`Frame` view of frame *index*."""
        if not 0 <= index < self.total_frames:
            raise MemoryError_(f"frame {index} out of range")
        if index >= self._next:
            return Frame(index, None, None, False, False, True)
        owner = self.owner[index]
        state = self.state[index]
        return Frame(
            index,
            owner,
            None if owner is None else self.vpn[index],
            bool(self.dirty[index]),
            state == PINNED,
            state == FREE,
        )

    @property
    def free_frames(self) -> int:
        """Frames on the free list."""
        return len(self._released) + self.total_frames - self._next

    @property
    def used_frames(self) -> int:
        """Frames allocated or pinned."""
        return self._next - len(self._released)

    def pin(self, nbytes: int) -> int:
        """Permanently reserve *nbytes* (rounded up to whole frames).

        Models the OS base memory usage (17 MB Linux / 19 MB TSE idle).
        Returns the number of frames pinned.
        """
        npages = -(-nbytes // self.page_size)
        if npages > self.free_frames:
            raise MemoryError_(
                f"cannot pin {npages} frames; only {self.free_frames} free"
            )
        released = self._released
        reused = min(npages, len(released))
        for _ in range(reused):
            self.state[released.pop()] = PINNED
        if npages > reused:
            self._grow(npages - reused, PINNED)
        return npages

    def allocate(self) -> Optional[int]:
        """Take a free frame, or None if physical memory is exhausted."""
        if self._released:
            index = self._released.pop()
            self.state[index] = USED
            return index
        index = self._next
        if index == self.total_frames:
            return None
        self.owner.append(None)
        self.vpn.append(0)
        self.dirty.append(0)
        self.state.append(USED)
        return index

    def allocate_run(self, count: int) -> Sequence[int]:
        """Take *count* free frames, in the order *count* :meth:`allocate`
        calls would return them; *count* must not exceed :attr:`free_frames`.

        A run of never-used frames comes back as a ``range``.
        """
        if count > self.free_frames:
            raise MemoryError_(
                f"cannot allocate {count} frames; only {self.free_frames} free"
            )
        released = self._released
        reused = min(count, len(released))
        if not reused:
            return self._grow(count, USED)
        split = len(released) - reused
        frames = released[split:].tolist()
        del released[split:]
        frames.reverse()  # the stack pops from its top
        state = self.state
        for index in frames:
            state[index] = USED
        if count > reused:
            frames += self._grow(count - reused, USED)
        return frames

    def release(self, index: int) -> None:
        """Return frame *index* to the free list."""
        if not 0 <= index < self._next:
            raise MemoryError_(f"frame {index} was never allocated")
        state = self.state[index]
        if state == PINNED:
            raise MemoryError_(f"cannot release pinned frame {index}")
        if state == FREE:
            raise MemoryError_(f"double free of frame {index}")
        self.owner[index] = None
        self.dirty[index] = 0
        self.state[index] = FREE
        self._released.append(index)
