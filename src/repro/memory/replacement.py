"""Page replacement policies.

Global replacement over all unpinned resident frames, as both measured
systems effectively do under pressure: "certain types of non-interactive,
streaming memory jobs will typically force all other non-active processes to
be paged to disk" (§5.2).  Policies:

* :class:`LRUPolicy` — exact least-recently-used (a linked list);
* :class:`ClockPolicy` — the classic second-chance approximation both real
  kernels actually shipped;
* :class:`FIFOPolicy` — eviction in arrival order (baseline for tests).

A policy tracks only *evictable* frames; the VM manager notifies it on
insert/access/remove and asks for a victim when the free list runs dry.
"""

from __future__ import annotations

import abc
from array import array
from collections import deque
from typing import Deque, Sequence

from ..errors import MemoryError_


class ReplacementPolicy(abc.ABC):
    """Interface between the VM manager and an eviction algorithm.

    Frames are the :class:`~repro.memory.physical.FramePool`'s ``int``
    indices.
    """

    name = "abstract"

    @abc.abstractmethod
    def insert(self, frame: int) -> None:
        """A page was just faulted into *frame*."""

    def insert_run(self, frames: Sequence[int]) -> None:
        """Pages were just faulted into *frames*: the state one
        :meth:`insert` per frame, in order, would leave."""
        for frame in frames:
            self.insert(frame)

    @abc.abstractmethod
    def access(self, frame: int) -> None:
        """The page in *frame* was touched (hit)."""

    @abc.abstractmethod
    def remove(self, frame: int) -> None:
        """*frame* left the evictable set (freed or pinned)."""

    @abc.abstractmethod
    def select_victim(self) -> int:
        """Choose and remove the next frame to evict."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of frames currently tracked."""


class LRUPolicy(ReplacementPolicy):
    """Exact least-recently-used eviction.

    An intrusive doubly linked list in two ``array('q')`` columns, where
    frame *f* is slot ``f + 1``.  Slot 0 is the sentinel: its ``_next`` is
    the least recently used frame's slot, its ``_prev`` the most recent.
    An untracked frame's ``_prev`` is -1.  The columns grow to the highest
    frame ever inserted.
    """

    name = "lru"

    def __init__(self) -> None:
        self._prev = array("q", [0])
        self._next = array("q", [0])
        self._size = 0

    def _grow(self, slots: int) -> None:
        missing = slots - len(self._prev)
        if missing > 0:
            untracked = b"\xff" * (8 * missing)  # -1 in every slot
            self._prev.frombytes(untracked)
            self._next.frombytes(untracked)

    def _tracked(self, slot: int) -> bool:
        return slot < len(self._prev) and self._prev[slot] >= 0

    def insert(self, frame: int) -> None:
        slot = frame + 1
        if self._tracked(slot):
            raise MemoryError_(f"frame {frame} inserted twice")
        self._grow(slot + 1)
        prev, nxt = self._prev, self._next
        tail = prev[0]
        nxt[tail] = slot
        prev[slot] = tail
        nxt[slot] = 0
        prev[0] = slot
        self._size += 1

    def insert_run(self, frames: Sequence[int]) -> None:
        if not (type(frames) is range and frames.step == 1 and frames):
            super().insert_run(frames)
            return
        # A run of consecutive frames: link slots start..stop-1, in
        # order, after the current tail.
        start, stop = frames.start + 1, frames.stop + 1
        self._grow(stop)
        prev, nxt = self._prev, self._next
        if prev[start:stop].count(-1) != len(frames):
            raise MemoryError_("frame inserted twice")
        tail = prev[0]
        nxt[tail] = start
        prev[start] = tail
        prev[start + 1 : stop] = array("q", range(start, stop - 1))
        nxt[start : stop - 1] = array("q", range(start + 1, stop))
        nxt[stop - 1] = 0
        prev[0] = stop - 1
        self._size += len(frames)

    def access(self, frame: int) -> None:
        slot = frame + 1
        prev = self._prev
        try:
            before = prev[slot]
        except IndexError:
            before = -1
        if before < 0:
            raise MemoryError_(f"access to untracked frame {frame}")
        nxt = self._next
        after = nxt[slot]
        if after == 0:
            return  # already the most recent
        nxt[before] = after
        prev[after] = before
        tail = prev[0]
        nxt[tail] = slot
        prev[slot] = tail
        nxt[slot] = 0
        prev[0] = slot

    def _unlink(self, slot: int) -> None:
        prev, nxt = self._prev, self._next
        before, after = prev[slot], nxt[slot]
        nxt[before] = after
        prev[after] = before
        prev[slot] = -1
        self._size -= 1

    def remove(self, frame: int) -> None:
        slot = frame + 1
        if self._tracked(slot):
            self._unlink(slot)

    def select_victim(self) -> int:
        slot = self._next[0]
        if slot == 0:
            raise MemoryError_("no evictable frames")
        self._unlink(slot)
        return slot - 1

    def __len__(self) -> int:
        return self._size


class ClockPolicy(ReplacementPolicy):
    """Second-chance (clock) replacement with its own reference bits.

    ``_bits`` holds one byte per frame: 0 untracked, 1 tracked, 2 tracked
    and referenced.
    """

    name = "clock"

    def __init__(self) -> None:
        self._ring: Deque[int] = deque()
        self._bits = bytearray()

    def insert(self, frame: int) -> None:
        bits = self._bits
        if frame < len(bits) and bits[frame]:
            raise MemoryError_(f"frame {frame} inserted twice")
        if frame >= len(bits):
            bits += bytes(frame + 1 - len(bits))
        bits[frame] = 2
        self._ring.append(frame)

    def access(self, frame: int) -> None:
        bits = self._bits
        if frame >= len(bits) or not bits[frame]:
            raise MemoryError_(f"access to untracked frame {frame}")
        bits[frame] = 2

    def remove(self, frame: int) -> None:
        bits = self._bits
        if frame < len(bits) and bits[frame]:
            bits[frame] = 0
            self._ring.remove(frame)

    def select_victim(self) -> int:
        ring = self._ring
        if not ring:
            raise MemoryError_("no evictable frames")
        bits = self._bits
        while True:
            frame = ring.popleft()
            if bits[frame] == 2:
                bits[frame] = 1
                ring.append(frame)
            else:
                bits[frame] = 0
                return frame

    def __len__(self) -> int:
        return len(self._ring)


class FIFOPolicy(LRUPolicy):
    """Evict in arrival order, ignoring access recency.

    LRU's linked list with no reordering on access: the list stays in
    insertion order.
    """

    name = "fifo"

    def access(self, frame: int) -> None:
        if not self._tracked(frame + 1):
            raise MemoryError_(f"access to untracked frame {frame}")


def make_policy(name: str) -> ReplacementPolicy:
    """Construct a policy by name: ``lru``, ``clock``, or ``fifo``."""
    policies = {"lru": LRUPolicy, "clock": ClockPolicy, "fifo": FIFOPolicy}
    try:
        return policies[name]()
    except KeyError:
        raise MemoryError_(
            f"unknown replacement policy {name!r}; expected one of "
            f"{sorted(policies)}"
        ) from None
