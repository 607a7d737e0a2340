"""Multiprocessor composition: several CPUs behind one placement policy.

The paper's server-sizing context (§4.1.2, and the vendor white papers it
critiques) is multiprocessor TSE boxes.  :class:`SMPSystem` models an SMP
server as *k* CPUs, each running its own scheduler instance, with
**affinity placement**: a thread is assigned to the least-loaded processor
when it is added and stays there for life.  Both measured kernels strongly
preferred cache affinity (NT's ideal-processor mechanism, Linux's
``goodness()`` affinity bonus), and neither migrated threads aggressively
at this era, so no-migration placement is the right first-order model —
and it keeps each per-CPU scheduler exactly as validated in the
uniprocessor experiments.

The composition exposes the same surface experiments use on a single
:class:`~repro.cpu.cpusim.CPU` (``add_thread``/``submit``/``kill``/
``utilization``), so workloads run unchanged on either.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import SchedulerError
from ..sim.engine import Simulator
from .cpusim import CPU
from .scheduler import Scheduler
from .thread import Burst, Thread


class SMPSystem:
    """*k* processors with least-loaded, no-migration thread placement."""

    def __init__(
        self,
        sim: Simulator,
        scheduler_factory: Callable[[], Scheduler],
        cpu_count: int,
        *,
        name: str = "smp",
        speed: float = 1.0,
        context_switch_ms: float = 0.0,
    ) -> None:
        if cpu_count < 1:
            raise SchedulerError("need at least one CPU")
        self.sim = sim
        self.cpus: List[CPU] = [
            CPU(
                sim,
                scheduler_factory(),
                name=f"{name}:cpu{i}",
                speed=speed,
                context_switch_ms=context_switch_ms,
            )
            for i in range(cpu_count)
        ]
        self._assignment: Dict[int, CPU] = {}
        self._placed: Dict[str, int] = {cpu.name: 0 for cpu in self.cpus}

    # -- placement -----------------------------------------------------------

    def _least_loaded(self) -> CPU:
        """Fewest runnable threads; ties broken by fewest placements.

        The tie-break matters: a fleet of *blocked* interactive threads
        (all load 0 at placement time) must still spread across the
        processors.
        """
        return min(
            self.cpus,
            key=lambda cpu: (cpu.load, self._placed[cpu.name], cpu.name),
        )

    def cpu_of(self, thread: Thread) -> CPU:
        """The processor *thread* is bound to."""
        try:
            return self._assignment[thread.tid]
        except KeyError:
            raise SchedulerError(
                f"thread {thread.name!r} is not placed on this system"
            ) from None

    def add_thread(
        self, thread: Thread, *, cpu_index: Optional[int] = None
    ) -> CPU:
        """Place *thread* (least-loaded CPU, or an explicit ``cpu_index``)."""
        if thread.tid in self._assignment:
            raise SchedulerError(f"thread {thread.name!r} already placed")
        if cpu_index is None:
            cpu = self._least_loaded()
        else:
            if not 0 <= cpu_index < len(self.cpus):
                raise SchedulerError(f"no cpu {cpu_index}")
            cpu = self.cpus[cpu_index]
        cpu.add_thread(thread)
        self._assignment[thread.tid] = cpu
        self._placed[cpu.name] += 1
        return cpu

    # -- the CPU surface, routed by affinity ------------------------------------

    def submit(self, thread: Thread, burst: Burst) -> Burst:
        """Queue *burst* on *thread*'s home processor."""
        return self.cpu_of(thread).submit(thread, burst)

    def kill(self, thread: Thread) -> None:
        """Terminate *thread* and release its placement slot."""
        self.cpu_of(thread).kill(thread)
        del self._assignment[thread.tid]

    @property
    def cpu_count(self) -> int:
        """Number of processors in the system."""
        return len(self.cpus)

    @property
    def load(self) -> int:
        """Ready or running threads across the whole system."""
        return sum(cpu.load for cpu in self.cpus)

    @property
    def run_queue_length(self) -> int:
        """Waiting (not running) threads across all processors."""
        return sum(cpu.run_queue_length for cpu in self.cpus)

    def utilization(self, t0: float, t1: float) -> float:
        """Mean utilization across processors over ``[t0, t1)``."""
        return sum(cpu.utilization(t0, t1) for cpu in self.cpus) / len(self.cpus)
