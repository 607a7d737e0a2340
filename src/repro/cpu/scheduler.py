"""Scheduler interface and shared ready-queue machinery.

Concrete schedulers (:mod:`repro.cpu.nt`, :mod:`repro.cpu.linuxsched`,
:mod:`repro.cpu.svr4`) implement this interface; the :class:`repro.cpu.cpusim.CPU`
drives them.  The division of labour:

* the CPU owns thread state transitions and the passage of time;
* the scheduler owns ready queues, priorities, quanta, and preemption policy.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Optional

from ..errors import SchedulerError
from .thread import Thread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cpusim import CPU


class Scheduler(abc.ABC):
    """Abstract scheduling policy.

    Lifecycle calls made by the CPU, in the order they occur:

    1. :meth:`attach` — once, when the CPU is built.
    2. :meth:`register` — for each new thread.
    3. :meth:`enqueue_woken` / :meth:`enqueue_expired` /
       :meth:`enqueue_preempted` — whenever a runnable thread must rejoin
       the ready queues.
    4. :meth:`select` — pop the next thread to run.  The scheduler must
       leave ``thread.remaining_quantum > 0``.
    5. :meth:`preempts` — consulted when a thread wakes while another runs.
    6. :meth:`on_block` — when the running thread exhausts its bursts.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.cpu: Optional["CPU"] = None

    def attach(self, cpu: "CPU") -> None:
        """Bind to the CPU (gives access to the simulator clock)."""
        self.cpu = cpu

    @property
    def sim(self):
        """The simulator clock, via the attached CPU."""
        if self.cpu is None:
            raise SchedulerError(f"{self.name} scheduler is not attached to a CPU")
        return self.cpu.sim

    # -- policy hooks ----------------------------------------------------------

    @abc.abstractmethod
    def register(self, thread: Thread) -> None:
        """Assign default priority/class state to a newly added thread."""

    @abc.abstractmethod
    def enqueue_woken(self, thread: Thread) -> None:
        """Thread transitioned BLOCKED → READY (this is where wake boosts go)."""

    @abc.abstractmethod
    def enqueue_expired(self, thread: Thread) -> None:
        """Thread used up its quantum and is still runnable."""

    @abc.abstractmethod
    def enqueue_preempted(self, thread: Thread) -> None:
        """Thread was preempted mid-quantum by a higher-priority wake."""

    @abc.abstractmethod
    def select(self) -> Optional[Thread]:
        """Pop and return the next thread to run, or None if nothing is ready."""

    @abc.abstractmethod
    def preempts(self, woken: Thread, running: Thread) -> bool:
        """Should *woken* immediately preempt *running*?"""

    @abc.abstractmethod
    def runnable_count(self) -> int:
        """Number of threads currently in the ready queues (excludes running)."""

    def on_block(self, thread: Thread) -> None:
        """Running thread blocked.  Default: no bookkeeping."""

    def remove(self, thread: Thread) -> None:
        """Thread was killed; drop any queued reference.  Default: best effort."""


class PriorityReadyQueues:
    """Multilevel FIFO ready queues indexed by integer priority.

    Shared by the NT, SVR4 and Linux real-time schedulers.
    ``higher_is_better`` priorities: :meth:`pop_best` returns the head of the
    highest non-empty level.  Like NT's dispatcher ready summary, an integer
    bitmap has bit *p* set exactly when level *p* is non-empty, so selection
    is one ``bit_length`` instead of a scan over every level.
    """

    def __init__(self, levels: int) -> None:
        if levels <= 0:
            raise SchedulerError("need at least one priority level")
        self.levels = levels
        self._queues: List[Deque[Thread]] = [deque() for _ in range(levels)]
        self._summary = 0
        self._count = 0

    def push(self, thread: Thread, *, front: bool = False) -> None:
        """Queue *thread* at its current ``thread.priority`` level."""
        priority = thread.priority
        if not 0 <= priority < self.levels:
            raise SchedulerError(
                f"priority {priority} out of range [0, {self.levels})"
            )
        if front:
            self._queues[priority].appendleft(thread)
        else:
            self._queues[priority].append(thread)
        self._summary |= 1 << priority
        self._count += 1

    def pop_best(self) -> Optional[Thread]:
        """Pop the head of the highest-priority non-empty queue."""
        summary = self._summary
        if not summary:
            return None
        priority = summary.bit_length() - 1
        queue = self._queues[priority]
        thread = queue.popleft()
        if not queue:
            self._summary = summary ^ (1 << priority)
        self._count -= 1
        return thread

    def remove(self, thread: Thread) -> bool:
        """Remove *thread* wherever it is queued.  True if found."""
        for priority in self._nonempty_levels():
            queue = self._queues[priority]
            try:
                queue.remove(thread)
            except ValueError:
                continue
            if not queue:
                self._summary ^= 1 << priority
            self._count -= 1
            return True
        return False

    def ready_threads(self) -> List[Thread]:
        """All queued threads, best priority first (for starvation scans)."""
        return [t for p in self._nonempty_levels() for t in self._queues[p]]

    def _nonempty_levels(self) -> Iterator[int]:
        """The set bits of the summary, best priority first."""
        summary = self._summary
        while summary:
            priority = summary.bit_length() - 1
            summary ^= 1 << priority
            yield priority

    def __len__(self) -> int:
        return self._count

    def __contains__(self, thread: Thread) -> bool:
        return any(thread in self._queues[p] for p in self._nonempty_levels())
