"""Page replacement policies.

Global replacement over all unpinned resident frames, as both measured
systems effectively do under pressure: "certain types of non-interactive,
streaming memory jobs will typically force all other non-active processes to
be paged to disk" (§5.2).  Policies:

* :class:`LRUPolicy` — exact least-recently-used (an ordered map);
* :class:`ClockPolicy` — the classic second-chance approximation both real
  kernels actually shipped;
* :class:`FIFOPolicy` — eviction in arrival order (baseline for tests).

A policy tracks only *evictable* frames; the VM manager notifies it on
insert/access/remove and asks for a victim when the free list runs dry.
"""

from __future__ import annotations

import abc
from collections import OrderedDict, deque
from typing import Deque, Dict, List

from ..errors import MemoryError_
from .physical import Frame


class ReplacementPolicy(abc.ABC):
    """Interface between the VM manager and an eviction algorithm."""

    name = "abstract"

    @abc.abstractmethod
    def insert(self, frame: Frame) -> None:
        """A page was just faulted into *frame*."""

    @abc.abstractmethod
    def insert_run(self, frames: List[Frame]) -> None:
        """Pages were just faulted into *frames*: the state one
        :meth:`insert` per frame, in list order, would leave."""

    @abc.abstractmethod
    def access(self, frame: Frame) -> None:
        """The page in *frame* was touched (hit)."""

    @abc.abstractmethod
    def remove(self, frame: Frame) -> None:
        """*frame* left the evictable set (freed or pinned)."""

    @abc.abstractmethod
    def select_victim(self) -> Frame:
        """Choose and remove the next frame to evict."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of frames currently tracked."""


class LRUPolicy(ReplacementPolicy):
    """Exact least-recently-used eviction."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[int, Frame]" = OrderedDict()

    def insert(self, frame: Frame) -> None:
        if frame.index in self._order:
            raise MemoryError_(f"frame {frame.index} inserted twice")
        self._order[frame.index] = frame

    def insert_run(self, frames: List[Frame]) -> None:
        _insert_keyed(self._order, frames)

    def access(self, frame: Frame) -> None:
        if frame.index not in self._order:
            raise MemoryError_(f"access to untracked frame {frame.index}")
        self._order.move_to_end(frame.index)

    def remove(self, frame: Frame) -> None:
        self._order.pop(frame.index, None)

    def select_victim(self) -> Frame:
        if not self._order:
            raise MemoryError_("no evictable frames")
        __, frame = self._order.popitem(last=False)
        return frame

    def __len__(self) -> int:
        return len(self._order)


class ClockPolicy(ReplacementPolicy):
    """Second-chance (clock) replacement using frame reference bits."""

    name = "clock"

    def __init__(self) -> None:
        self._ring: Deque[Frame] = deque()
        self._members: Dict[int, Frame] = {}

    def insert(self, frame: Frame) -> None:
        if frame.index in self._members:
            raise MemoryError_(f"frame {frame.index} inserted twice")
        frame.referenced = True
        self._ring.append(frame)
        self._members[frame.index] = frame

    def insert_run(self, frames: List[Frame]) -> None:
        for frame in frames:
            frame.referenced = True
        _insert_keyed(self._members, frames)
        self._ring.extend(frames)

    def access(self, frame: Frame) -> None:
        if frame.index not in self._members:
            raise MemoryError_(f"access to untracked frame {frame.index}")
        frame.referenced = True

    def remove(self, frame: Frame) -> None:
        if self._members.pop(frame.index, None) is not None:
            self._ring.remove(frame)

    def select_victim(self) -> Frame:
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

    def __len__(self) -> int:
        return len(self._ring)


class FIFOPolicy(ReplacementPolicy):
    """Evict in arrival order, ignoring access recency."""

    name = "fifo"

    def __init__(self) -> None:
        self._queue: "OrderedDict[int, Frame]" = OrderedDict()

    def insert(self, frame: Frame) -> None:
        if frame.index in self._queue:
            raise MemoryError_(f"frame {frame.index} inserted twice")
        self._queue[frame.index] = frame

    def insert_run(self, frames: List[Frame]) -> None:
        _insert_keyed(self._queue, frames)

    def access(self, frame: Frame) -> None:
        if frame.index not in self._queue:
            raise MemoryError_(f"access to untracked frame {frame.index}")

    def remove(self, frame: Frame) -> None:
        self._queue.pop(frame.index, None)

    def select_victim(self) -> Frame:
        if not self._queue:
            raise MemoryError_("no evictable frames")
        __, frame = self._queue.popitem(last=False)
        return frame

    def __len__(self) -> int:
        return len(self._queue)


def _insert_keyed(tracked: Dict[int, Frame], frames: List[Frame]) -> None:
    """Add *frames* to *tracked* under their indices, in order.

    The batch form of each policy's "inserted twice" check: the map grows
    by one entry a frame exactly when no frame was tracked already.
    """
    size = len(tracked)
    for frame in frames:
        tracked[frame.index] = frame
    if len(tracked) != size + len(frames):
        raise MemoryError_("frame inserted twice")


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
