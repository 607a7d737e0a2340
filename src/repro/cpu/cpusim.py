"""The simulated CPU: dispatch, time slicing, preemption, accounting.

One :class:`CPU` owns one :class:`~repro.cpu.scheduler.Scheduler` and any
number of threads.  It advances threads' bursts in *slices* — each slice ends
at whichever comes first of quantum expiry or burst completion — and records
every busy slice, labelled with its thread's name, in one
:class:`~repro.sim.trace.IntervalTrace`, which is what the lost-time
measurement (Figures 1 and 2) and its per-thread attribution consume.

A ``speed`` factor scales the processor: burst demands are expressed in ms
of CPU time on a reference processor, and a CPU with ``speed=2.0`` retires
them in half the wall-clock time.  This is how the paper's "upgrading to a
faster processor brings operations under the boost grace period" analysis is
reproduced (see ``benchmarks/test_abl_boost_grace.py``).
"""

from __future__ import annotations

from typing import Optional

from ..errors import SchedulerError
from ..obs import current_observation
from ..sim.engine import Event, Simulator
from ..sim.trace import IntervalTrace
from .scheduler import Scheduler
from .thread import Burst, Thread, ThreadState

_EPS = 1e-9


class CPU:
    """A single simulated processor driven by a pluggable scheduler."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: Scheduler,
        *,
        name: str = "cpu0",
        speed: float = 1.0,
        context_switch_ms: float = 0.0,
    ) -> None:
        if speed <= 0:
            raise SchedulerError("CPU speed must be positive")
        if context_switch_ms < 0:
            raise SchedulerError("context-switch cost cannot be negative")
        self.sim = sim
        self.scheduler = scheduler
        self.name = name
        self.speed = speed
        #: Wall-clock cost of switching to a *different* thread: direct
        #: dispatch cost plus cache/TLB pollution.  The "execution
        #: fragmentation" horn of the paper's quantum catch-22 (§4.2.1)
        #: only exists because this is non-zero on real hardware.
        self.context_switch_ms = context_switch_ms
        scheduler.attach(self)

        self.current: Optional[Thread] = None
        #: Every busy slice, labelled with the thread name, for lost-time
        #: attribution: which service's activity a user's input would have
        #: collided with.
        self.busy_trace = IntervalTrace(name)
        self.threads: list[Thread] = []
        self.context_switches = 0

        self._slice_event: Optional[Event] = None
        self._slice_start = 0.0
        self._slice_cs = 0.0  #: unconsumed switch overhead in this slice
        self._last_thread: Optional[Thread] = None
        self._dispatching = False
        self._obs = current_observation()
        # Instrument handles resolved lazily on first use, so a CPU that
        # never switches/dispatches registers exactly the metrics the seed
        # kernel's artifacts would contain — and the per-slice bookkeeping
        # below skips the registry's name lookups.
        self._switch_counter = None
        self._switch_channel = None
        self._dispatch_counter = None
        self._rq_gauge = None

    # -- thread management --------------------------------------------------

    def add_thread(self, thread: Thread) -> Thread:
        """Register *thread* with the scheduler; runnable threads go ready."""
        if thread.state is not ThreadState.NEW:
            raise SchedulerError(
                f"thread {thread.name!r} already added (state {thread.state})"
            )
        self.scheduler.register(thread)
        self.threads.append(thread)
        if thread.has_work:
            self._make_ready(thread)
        else:
            thread.state = ThreadState.BLOCKED
        self._try_dispatch()
        return thread

    def submit(self, thread: Thread, burst: Burst) -> Burst:
        """Queue *burst* on *thread*, waking it if it was blocked."""
        burst.created_at = self.sim.now
        thread.push_burst(burst)
        if thread.state is ThreadState.BLOCKED:
            self._make_ready(thread)
            self._try_dispatch()
        return burst

    def kill(self, thread: Thread) -> None:
        """Terminate *thread* immediately, charging any partial slice."""
        if thread.state is ThreadState.TERMINATED:
            return
        if thread is self.current:
            self._charge_current(self.sim.now)
            self._cancel_slice()
            self.current = None
        elif thread.state is ThreadState.READY:
            self.scheduler.remove(thread)
        thread.state = ThreadState.TERMINATED
        thread.bursts.clear()
        thread.current_burst = None
        self._try_dispatch()

    # -- load observation -------------------------------------------------------

    @property
    def run_queue_length(self) -> int:
        """Threads waiting in ready queues (the paper's Figure 3 x-axis)."""
        return self.scheduler.runnable_count()

    @property
    def load(self) -> int:
        """Threads ready to run, plus the one on the CPU."""
        return self.run_queue_length + (1 if self.current is not None else 0)

    def utilization(self, t0: float, t1: float) -> float:
        """Fraction of ``[t0, t1)`` the CPU spent busy."""
        if t1 <= t0:
            raise SchedulerError("empty utilization window")
        busy = 0.0
        for start, end in self.busy_trace.merged():
            busy += max(0.0, min(end, t1) - max(start, t0))
        return busy / (t1 - t0)

    # -- state transitions --------------------------------------------------------

    def _make_ready(self, thread: Thread) -> None:
        now = self.sim.now
        thread.state = ThreadState.READY
        thread.ready_since = now
        self.scheduler.enqueue_woken(thread)
        if self.current is not None and self.scheduler.preempts(
            thread, self.current
        ):
            self._preempt_current(now)

    def _preempt_current(self, now: float) -> None:
        thread = self.current
        assert thread is not None
        self._charge_current(now)
        self._cancel_slice()
        self.current = None
        thread.state = ThreadState.READY
        thread.ready_since = now
        self.scheduler.enqueue_preempted(thread)

    def _charge_current(self, now: float) -> None:
        """Account for the partial slice the current thread has run.

        This is the per-quantum bookkeeping hot spot: one call per slice
        boundary, so the whole account — time, quantum, burst progress,
        the busy trace — is computed once on locals and written back
        in a single pass.
        """
        thread = self.current
        assert thread is not None
        start = self._slice_start
        elapsed = now - start
        if elapsed <= 0:
            return
        overhead = self._slice_cs
        if overhead > elapsed:
            overhead = elapsed
        self._slice_cs -= overhead
        thread.cpu_time += elapsed
        thread.last_ran_at = now
        thread.remaining_quantum -= elapsed
        burst = thread.current_burst
        assert burst is not None
        if not burst.is_infinite:
            remaining = burst.remaining - (elapsed - overhead) * self.speed
            burst.remaining = remaining if remaining > 0.0 else 0.0
        self.busy_trace.record(start, now, thread.name)
        self._slice_start = now

    def _cancel_slice(self) -> None:
        if self._slice_event is not None:
            self._slice_event.cancel()
            self._slice_event = None

    # -- dispatch loop ---------------------------------------------------------

    def _try_dispatch(self) -> None:
        if self._dispatching:
            return
        self._dispatching = True
        try:
            self._dispatch()
        finally:
            self._dispatching = False

    def _dispatch(self) -> None:
        if self.current is not None:
            return
        thread = self.scheduler.select()
        if thread is None:
            return
        if thread.state is not ThreadState.READY:
            raise SchedulerError(
                f"scheduler selected thread {thread.name!r} in state "
                f"{thread.state}"
            )
        if thread.current_burst is None and thread.take_next_burst() is None:
            raise SchedulerError(
                f"scheduler selected thread {thread.name!r} with no work"
            )
        if thread.remaining_quantum <= 0:
            raise SchedulerError(
                f"{self.scheduler.name}.select() left thread "
                f"{thread.name!r} with no quantum"
            )
        burst = thread.current_burst
        assert burst is not None
        now = self.sim.now
        if burst.first_run_at is None:
            burst.first_run_at = now
        thread.state = ThreadState.RUNNING
        thread.ready_since = None
        thread.dispatch_count += 1
        self.current = thread
        self._slice_start = now
        obs = self._obs
        if thread is not self._last_thread:
            self._slice_cs = self.context_switch_ms
            if self._last_thread is not None:
                self.context_switches += 1
                if obs is not None:
                    counter = self._switch_counter
                    if counter is None:
                        counter = self._switch_counter = obs.metrics.counter(
                            "cpu.context_switches"
                        )
                        self._switch_channel = obs.channel(
                            "cpu.switch", "cpu", "prev", "next"
                        )
                    counter.value += 1
                    self._switch_channel(
                        now,
                        self.name,
                        self._last_thread.name,
                        thread.name,
                    )
        if obs is not None:
            counter = self._dispatch_counter
            if counter is None:
                counter = self._dispatch_counter = obs.metrics.counter(
                    "cpu.dispatches"
                )
                self._rq_gauge = obs.metrics.gauge("cpu.run_queue_depth")
            counter.value += 1
            # Inlined Gauge.set: one sample per dispatch is the hottest
            # gauge in the figure experiments.
            gauge = self._rq_gauge
            depth = self.scheduler.runnable_count()
            gauge.last = depth
            if gauge.samples == 0 or depth > gauge.peak:
                gauge.peak = depth
            gauge.samples += 1
        self._last_thread = thread

        self._slice_event = self.sim.schedule(
            self._slice_len(thread), self._end_slice
        )

    def _slice_len(self, thread: Thread) -> float:
        """Wall time to the next slice boundary, including switch cost."""
        burst = thread.current_burst
        assert burst is not None
        if burst.is_infinite:
            return thread.remaining_quantum
        work = self._slice_cs + burst.remaining / self.speed
        return min(thread.remaining_quantum, work)

    def _end_slice(self) -> None:
        thread = self.current
        assert thread is not None
        now = self.sim.now
        self._slice_event = None
        self._charge_current(now)
        burst = thread.current_burst
        assert burst is not None

        completed = not burst.is_infinite and burst.remaining <= _EPS
        callback: Optional[tuple] = None
        if completed:
            burst.completed_at = now
            if burst.on_complete is not None:
                callback = (burst.on_complete, now)
            thread.current_burst = None
            if thread.take_next_burst() is not None:
                # More queued work: keep running in the same quantum if any
                # of it remains, otherwise round-robin to the back.
                if thread.remaining_quantum <= _EPS:
                    self._requeue_expired(thread, now)
                else:
                    self._continue_running(thread, now)
            else:
                self.current = None
                thread.state = ThreadState.BLOCKED
                self.scheduler.on_block(thread)
        else:
            # Quantum expired with work remaining.
            self._requeue_expired(thread, now)

        # Run the completion callback with the CPU in a consistent state; it
        # may submit new bursts or wake other threads.
        if callback is not None:
            on_complete, when = callback
            on_complete(when)
        self._try_dispatch()

    def _continue_running(self, thread: Thread, now: float) -> None:
        burst = thread.current_burst
        assert burst is not None
        if burst.first_run_at is None:
            burst.first_run_at = now
        self._slice_start = now
        # Same thread keeps running: no context-switch cost.
        self._slice_event = self.sim.schedule(
            self._slice_len(thread), self._end_slice
        )

    def _requeue_expired(self, thread: Thread, now: float) -> None:
        self.current = None
        thread.state = ThreadState.READY
        thread.ready_since = now
        self.scheduler.enqueue_expired(thread)
