"""Physical memory: a pool of page frames.

The unit of management is the **frame** — a physical page of ``page_size``
bytes.  Frames are either free, pinned (kernel/OS base usage that is never
paged, §5.1.1's "memory unavailable to user applications"), or owned by a
process page table.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import MemoryError_
from ..units import KB

#: The page size of both measured systems (i386): 4 KB.
DEFAULT_PAGE_SIZE = 4 * KB


class Frame:
    """One physical page frame."""

    __slots__ = ("index", "owner", "vpn", "dirty", "referenced", "pinned", "free")

    def __init__(self, index: int) -> None:
        self.index = index
        self.owner: Optional[object] = None  #: the AddressSpace using it
        self.vpn: Optional[int] = None  #: virtual page number within owner
        self.dirty = False
        self.referenced = False
        self.pinned = False
        self.free = False  #: tracks free-list membership in O(1)

    @property
    def in_use(self) -> bool:
        """True when owned by a process or pinned by the OS."""
        return self.owner is not None or self.pinned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame {self.index} owner={self.owner!r} vpn={self.vpn}>"


class FramePool:
    """A fixed pool of physical frames with a free list.

    Frames are built on first allocation.  The free list is a stack of
    released frames over a high-water index of frames never handed out.
    That hands frames out in exactly the order of a pool built up front:
    released frames are reused LIFO, then the lowest never-used index.
    OS-base frames pinned from the never-used range stay index ranges,
    with no :class:`Frame` object, until :attr:`frames` is read.
    """

    def __init__(self, total_bytes: int, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise MemoryError_("page size must be positive")
        if total_bytes < page_size:
            raise MemoryError_("physical memory smaller than one page")
        self.page_size = page_size
        self.total_frames = total_bytes // page_size
        self._released: List[Frame] = []  #: LIFO stack of freed frames
        self._next = 0  #: frames ``[_next, total_frames)`` were never used
        self._built: List[Frame] = []  #: every Frame built, in index order
        self._pinned_runs: List[range] = []  #: pinned indices with no object

    @property
    def frames(self) -> List[Frame]:
        """Every frame in index order, building the ones not yet built.

        The never-used frames join the bottom of the free list, where a
        pool built up front holds them, so reading this changes no
        allocation.
        """
        built = self._built
        if len(built) < self.total_frames:
            for run in self._pinned_runs:
                for index in run:
                    frame = Frame(index)
                    frame.pinned = True
                    built.append(frame)
            self._pinned_runs = []
            fresh = [Frame(i) for i in range(self._next, self.total_frames)]
            for frame in fresh:
                frame.free = True
            self._released[:0] = reversed(fresh)
            self._next = self.total_frames
            built += fresh
            built.sort(key=lambda frame: frame.index)
        return built

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
            frame = released.pop()
            frame.free = False
            frame.pinned = True
        fresh = npages - reused
        if fresh:
            self._pinned_runs.append(range(self._next, self._next + fresh))
            self._next += fresh
        return npages

    def allocate(self) -> Optional[Frame]:
        """Take a free frame, or None if physical memory is exhausted."""
        if self._released:
            frame = self._released.pop()
            frame.free = False
            frame.dirty = False
            frame.referenced = False
            return frame
        index = self._next
        if index == self.total_frames:
            return None
        self._next = index + 1
        frame = Frame(index)
        self._built.append(frame)
        return frame

    def release(self, frame: Frame) -> None:
        """Return *frame* to the free list."""
        if frame.pinned:
            raise MemoryError_(f"cannot release pinned frame {frame.index}")
        if frame.free:
            raise MemoryError_(f"double free of frame {frame.index}")
        frame.owner = None
        frame.vpn = None
        frame.dirty = False
        frame.referenced = False
        frame.free = True
        self._released.append(frame)
