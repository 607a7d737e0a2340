"""Threads and CPU bursts.

A :class:`Thread` is the schedulable entity.  Its demand is expressed as a
queue of :class:`Burst` objects: each burst is a run-to-block stretch of CPU
work (in milliseconds of CPU time on the simulated processor).  When a
thread's current burst completes, its completion callback fires (this is how
a keystroke-echo thread emits its display update) and the thread either
starts its next queued burst or blocks.

Scheduling metadata the paper's schedulers care about lives directly on the
thread: base priority, GUI/foreground flags (NT boosting and quantum
stretching), the scheduling class (Linux/SVR4), and accounting for
starvation detection and interactivity estimation.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import Any, Callable, Deque, Optional

from ..errors import SchedulerError


class ThreadState(enum.Enum):
    """Lifecycle of a simulated thread."""

    NEW = "new"  #: created, not yet added to a CPU
    READY = "ready"  #: runnable, waiting in a ready queue
    RUNNING = "running"  #: currently on the CPU
    BLOCKED = "blocked"  #: no queued bursts; waiting to be woken
    TERMINATED = "terminated"  #: removed; will never run again


class Burst:
    """One run-to-block stretch of CPU demand.

    Parameters
    ----------
    demand_ms:
        CPU time required, in ms on the simulated processor.  ``math.inf``
        makes a greedy, never-blocking burst (the paper's ``sink`` program).
    on_complete:
        Called as ``on_complete(completion_time_ms)`` when the burst's last
        instruction retires.
    tag:
        Arbitrary payload identifying what this burst services (e.g. the
        keystroke sequence number); used by measurement code.
    """

    __slots__ = (
        "demand_ms",
        "is_infinite",
        "remaining",
        "on_complete",
        "tag",
        "created_at",
        "first_run_at",
        "completed_at",
    )

    def __init__(
        self,
        demand_ms: float,
        on_complete: Optional[Callable[[float], None]] = None,
        tag: Any = None,
    ) -> None:
        if demand_ms < 0:
            raise SchedulerError(f"negative burst demand: {demand_ms}")
        self.demand_ms = demand_ms
        #: True for greedy bursts that never voluntarily yield (``sink``).
        self.is_infinite = math.isinf(demand_ms)
        self.remaining = demand_ms
        self.on_complete = on_complete
        self.tag = tag
        self.created_at: Optional[float] = None
        self.first_run_at: Optional[float] = None
        self.completed_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Burst demand={self.demand_ms} remaining={self.remaining}>"


class Thread:
    """A schedulable thread with a queue of CPU bursts.

    Parameters
    ----------
    name:
        Human-readable identifier (appears in traces).
    base_priority:
        The scheduler-specific base priority; ``None`` lets the scheduler
        assign its default for the thread's flags.
    gui:
        True for threads that service user input/display (candidates for
        NT's GUI wake-up boost and SVR4's IA class).
    foreground:
        True for threads of the foreground application (NT base priority 9
        vs 8, and quantum stretching).
    sched_class:
        Scheduling class name understood by the scheduler in use
        (e.g. ``"other"``, ``"fifo"``, ``"rr"`` for Linux; ``"ts"``, ``"ia"``,
        ``"sys"`` for SVR4).  ``None`` selects the scheduler default.
    session:
        Opaque session identifier, used only for reporting.
    """

    _next_id = 0

    def __init__(
        self,
        name: str,
        base_priority: Optional[int] = None,
        *,
        gui: bool = False,
        foreground: bool = False,
        sched_class: Optional[str] = None,
        session: Any = None,
    ) -> None:
        self.tid = Thread._next_id
        Thread._next_id += 1
        self.name = name
        self.base_priority = base_priority
        self.gui = gui
        self.foreground = foreground
        self.sched_class = sched_class
        self.session = session

        self.state = ThreadState.NEW
        self.bursts: Deque[Burst] = deque()
        self.current_burst: Optional[Burst] = None

        # Scheduler-managed dynamic state.
        self.priority: int = 0  #: current (possibly boosted) priority
        self.remaining_quantum: float = 0.0  #: ms left in the current quantum
        self.boost_quanta_left: int = 0  #: quanta left of an NT GUI boost
        self.sched_data: dict = {}  #: scratch space for scheduler-specific state

        # Accounting.
        self.cpu_time: float = 0.0  #: total ms of CPU time consumed
        self.ready_since: Optional[float] = None  #: when it last became READY
        self.last_ran_at: float = 0.0  #: when it last had CPU
        self.dispatch_count: int = 0  #: times selected to run

    # -- demand management -------------------------------------------------

    @property
    def has_work(self) -> bool:
        """True if a burst is in progress or queued."""
        return self.current_burst is not None or bool(self.bursts)

    def push_burst(self, burst: Burst) -> None:
        """Queue *burst* (does not change state; use ``CPU.submit``)."""
        if self.state is ThreadState.TERMINATED:
            raise SchedulerError(f"thread {self.name!r} is terminated")
        self.bursts.append(burst)

    def take_next_burst(self) -> Optional[Burst]:
        """Pop the next queued burst into ``current_burst``; None if empty."""
        if self.current_burst is not None:
            raise SchedulerError(
                f"thread {self.name!r} already has a burst in progress"
            )
        if not self.bursts:
            return None
        self.current_burst = self.bursts.popleft()
        return self.current_burst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Thread {self.name!r} tid={self.tid} {self.state.value}"
            f" prio={self.priority}>"
        )


def sink_thread(name: str = "sink", **kwargs: Any) -> Thread:
    """The paper's ``sink``: a greedy consumer of CPU cycles.

    Each running instance increases the scheduler queue length by one, which
    is how the paper controls server load in the Figure 3 experiment.  Extra
    keyword arguments pass through to :class:`Thread` (so an experiment can
    make sinks foreground or background, per scenario).
    """
    thread = Thread(name, **kwargs)
    thread.push_burst(Burst(math.inf))
    return thread
