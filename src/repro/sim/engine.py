"""Deterministic discrete-event simulation kernel (optimized).

This is the substrate under every experiment in the package.  It provides:

* :class:`Simulator` — a clock plus a timestamp-bucketed event queue.
* :class:`Event` — a cancellable handle for a scheduled callback.
* :class:`Signal` — a one-shot condition that coroutine processes can wait on.
* :class:`Process` — a lightweight generator-based process: the generator
  yields either a delay in milliseconds (float/int) or a :class:`Signal`.

Determinism
-----------
Events at equal timestamps fire in FIFO scheduling order (a monotonically
increasing sequence number breaks ties), so a run is a pure function of its
inputs and seeds.  No wall-clock time or global state is consulted anywhere.

Time is in **milliseconds** (see :mod:`repro.units`).

The fast queue
--------------
The seed kernel kept a binary heap of :class:`Event` objects, which made
every push/pop perform ``O(log n)`` *Python-level* ``Event.__lt__`` calls —
the single largest cost in profile traces of the figure experiments.  This
kernel replaces it with a hashed timer wheel:

* ``_buckets`` maps each distinct pending timestamp to the FIFO list of
  events scheduled at it (append order *is* sequence order, so the
  equal-timestamp FIFO guarantee is structural);
* ``_times`` is a heap of the distinct timestamps only, so every heap
  comparison is a C-level float compare and repeated timestamps — periodic
  clock ticks, same-tick signal wakes, t=0 spawn storms — cost one dict
  append instead of a heap reshuffle.

Cancelled events are never re-wrapped or re-heapified: cancellation sets a
flag and dispatch skips the corpse when its bucket drains (lazy deletion).
A fired event marks itself by dropping its action reference, which both
releases the closure early and lets :attr:`Simulator.pending` distinguish
fired from cancelled from live entries exactly.

Observation hooks are bound once at construction: with tracing off every
hook is a single ``is None`` test, so the untraced hot loop pays one pointer
test per event.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from ..errors import SimulationError
from ..obs import current_observation

Action = Callable[[], Any]


class Event:
    """A handle for a scheduled callback.

    Instances are created by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only ever calls :meth:`cancel`
    and reads :attr:`time`.  After firing, :attr:`action` is cleared — the
    kernel uses that as the "already fired" marker.
    """

    __slots__ = ("time", "seq", "action", "canceled")

    def __init__(self, time: float, seq: int, action: Optional[Action]) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.canceled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent; safe after firing."""
        self.canceled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "canceled" if self.canceled else "pending"
        return f"<Event t={self.time:.3f} seq={self.seq} {state}>"


class Signal:
    """A one-shot, many-waiter condition variable for simulated processes.

    A signal starts *pending*; :meth:`succeed` fires it exactly once with an
    optional value.  Processes that ``yield`` a signal are resumed (in FIFO
    order) when it fires; waiting on an already-fired signal resumes the
    process immediately.
    """

    __slots__ = ("sim", "fired", "value", "_waiters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.fired = False
        self.value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    def succeed(self, value: Any = None) -> None:
        """Fire the signal, waking every waiter at the current sim time."""
        if self.fired:
            raise SimulationError("Signal.succeed() called twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        schedule = self.sim.schedule
        for resume in waiters:
            schedule(0.0, partial(resume, value))

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        """Register *resume* to be called with the signal's value on fire."""
        if self.fired:
            self.sim.schedule(0.0, partial(resume, self.value))
        else:
            self._waiters.append(resume)


ProcessGen = Generator[Any, Any, Any]


class Process:
    """A generator-based simulated process.

    The generator may yield:

    * a non-negative ``float``/``int`` — sleep for that many milliseconds;
    * a :class:`Signal` — suspend until the signal fires; the signal's value
      is sent back into the generator.

    When the generator returns, :attr:`done` fires with its return value, so
    processes can wait on each other.
    """

    __slots__ = ("sim", "gen", "name", "done", "_wake")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = "") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Signal(sim)
        # One resume callable for the process's whole life: sleeps reuse it
        # instead of allocating a fresh closure per yield.
        self._wake = partial(self._step, None)
        if sim.obs is not None:
            sim._tr_spawn(sim.now, self.name)
        sim.schedule(0.0, self._wake)

    def _step(self, value: Any) -> None:
        sim = self.sim
        obs = sim.obs
        if obs is not None:
            sim._tr_wake(sim.now, self.name)
        try:
            yielded = self.gen.send(value)
        except StopIteration as stop:
            if obs is not None:
                sim._tr_exit(sim.now, self.name)
            self.done.succeed(stop.value)
            return
        tp = type(yielded)
        if tp is float or tp is int:
            # The dominant case: a plain sleep.  Checked first, via exact
            # type, so the hot path skips two isinstance() calls.
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: {yielded}"
                )
            if obs is not None:
                sim._tr_sleep(sim.now, self.name, float(yielded))
            sim.schedule(float(yielded), self._wake)
        elif isinstance(yielded, Signal):
            if obs is not None:
                sim._tr_wait(sim.now, self.name)
            yielded.add_waiter(self._step)
        elif isinstance(yielded, (int, float)):  # int/float subclasses (bool)
            if yielded < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay: {yielded}"
                )
            if obs is not None:
                sim._tr_sleep(sim.now, self.name, float(yielded))
            sim.schedule(float(yielded), self._wake)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {yielded!r}; "
                "expected a delay (ms) or a Signal"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r}>"


class Simulator:
    """The discrete-event clock and event queue.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("at t=10ms"))
        sim.run_until(1000.0)
    """

    __slots__ = (
        "_now",
        "_seq",
        "_times",
        "_buckets",
        "_running",
        "obs",
        "_dispatch_counter",
        "_tr_spawn",
        "_tr_wake",
        "_tr_exit",
        "_tr_sleep",
        "_tr_wait",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: Heap of *distinct* pending timestamps (plain floats: C compares).
        self._times: List[float] = []
        #: timestamp -> FIFO list of events scheduled at it.
        self._buckets: Dict[float, List[Event]] = {}
        self._running = False
        # Ambient observation, bound at construction.  When tracing is off
        # this is None and every hook below is a single pointer test.  When
        # it is on, the process-lifecycle trace channels and the dispatch
        # counter are resolved here, once, so per-event work is a positional
        # call (no kwargs dict, no registry lookup).
        obs = current_observation()
        self.obs = obs
        if obs is not None:
            self._dispatch_counter = obs.metrics.counter("sim.events_dispatched")
            channel = obs.channel
            self._tr_spawn = channel("proc.spawn", "proc")
            self._tr_wake = channel("proc.wake", "proc")
            self._tr_exit = channel("proc.exit", "proc")
            self._tr_sleep = channel("proc.sleep", "proc", "delay_ms")
            self._tr_wait = channel("proc.wait", "proc")
        else:
            self._dispatch_counter = None
            self._tr_spawn = None
            self._tr_wake = None
            self._tr_exit = None
            self._tr_sleep = None
            self._tr_wait = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, action: Action) -> Event:
        """Run *action* ``delay`` ms from now.  Returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        time = self._now + delay
        event = Event(time, self._seq, action)
        self._seq += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def schedule_at(self, time: float, action: Action) -> Event:
        """Run *action* at absolute simulation time *time* (ms)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        event = Event(time, self._seq, action)
        self._seq += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [event]
            heappush(self._times, time)
        else:
            bucket.append(event)
        return event

    def every(
        self,
        interval: float,
        action: Action,
        *,
        start: Optional[float] = None,
        jitter: Optional[Callable[[], float]] = None,
    ) -> "PeriodicTask":
        """Run *action* every *interval* ms until the returned task is stopped.

        ``start`` defaults to one interval from now.  ``jitter`` is called
        before each firing and its result (ms) is added to that firing's
        delay — pass a seeded RNG-backed callable for noisy periodic work.
        Omitting it takes the no-jitter fast lane (no callable invocation
        per tick).
        """
        if interval <= 0:
            raise SimulationError("periodic interval must be positive")
        return PeriodicTask(self, interval, action, start=start, jitter=jitter)

    def signal(self) -> Signal:
        """Create a fresh one-shot :class:`Signal` bound to this simulator."""
        return Signal(self)

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a generator-based :class:`Process` at the current time."""
        return Process(self, gen, name=name)

    def timeout(self, delay: float) -> Signal:
        """A signal that fires *delay* ms from now (for use inside processes)."""
        sig = Signal(self)
        self.schedule(delay, sig.succeed)
        return sig

    # -- execution ---------------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next pending event.  Returns False if queue empty."""
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            bucket = buckets[t]
            i = 0
            n = len(bucket)
            while i < n:
                event = bucket[i]
                i += 1
                action = event.action
                if action is None or event.canceled:
                    continue
                # Trim the consumed prefix (fired/cancelled corpses plus
                # this event) before running the action, so a same-time
                # reschedule lands *after* the surviving remainder.
                del bucket[:i]
                if not bucket:
                    heappop(times)
                    del buckets[t]
                event.action = None
                self._now = t
                counter = self._dispatch_counter
                if counter is not None:
                    counter.value += 1
                action()
                return True
            # Every entry was cancelled or already fired: drop the bucket.
            heappop(times)
            del buckets[t]
        return False

    def run_until(self, time: float) -> None:
        """Run all events with timestamp ``<= time``, then set the clock there.

        The clock always ends exactly at *time* even if the queue drains
        early, so back-to-back ``run_until`` calls measure wall-clock-like
        windows.
        """
        if time < self._now:
            raise SimulationError(
                f"run_until({time}) is in the past (now={self._now})"
            )
        if self._running:
            raise SimulationError("Simulator.run_until() is not reentrant")
        self._running = True
        times = self._times
        buckets = self._buckets
        counter = self._dispatch_counter
        try:
            while times:
                t = times[0]
                if t > time:
                    break
                self._now = t
                # The bucket stays in the dict while it drains: actions
                # that schedule back at time t append to this same list and
                # the iterator picks them up, preserving sequence order
                # without touching the heap.
                bucket = buckets[t]
                if counter is None:
                    for event in bucket:
                        action = event.action
                        if action is None or event.canceled:
                            continue
                        event.action = None
                        action()
                else:
                    for event in bucket:
                        action = event.action
                        if action is None or event.canceled:
                            continue
                        event.action = None
                        counter.value += 1
                        action()
                heappop(times)
                del buckets[t]
            self._now = time
        finally:
            self._running = False

    def run(self, duration: float) -> None:
        """Run for *duration* ms from the current time."""
        self.run_until(self._now + duration)

    def drain(self, limit: int = 1_000_000) -> int:
        """Fire events until the queue is empty.  Returns the count fired.

        ``limit`` guards against accidental infinite self-scheduling loops.
        """
        fired = 0
        while self.step():
            fired += 1
            if fired >= limit:
                raise SimulationError(f"drain() exceeded {limit} events")
        return fired

    @property
    def pending(self) -> int:
        """Number of queued live events — a debugging aid.

        Cancelled entries and already-fired corpses awaiting lazy cleanup
        are never counted.
        """
        return sum(
            1
            for bucket in self._buckets.values()
            for e in bucket
            if e.action is not None and not e.canceled
        )

    def __len__(self) -> int:
        """``len(sim)`` is the number of live (uncancelled, unfired) events."""
        return self.pending


class PeriodicTask:
    """A repeating action created by :meth:`Simulator.every`."""

    __slots__ = ("sim", "interval", "action", "jitter", "_stopped", "_event")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        action: Action,
        *,
        start: Optional[float] = None,
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.action = action
        self.jitter = jitter
        self._stopped = False
        first_delay = interval if start is None else max(0.0, start - sim.now)
        if jitter is not None:
            first_delay += max(0.0, jitter())
        self._event = sim.schedule(first_delay, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.action()
        if not self._stopped:
            jitter = self.jitter
            if jitter is None:
                # The fixed-interval fast lane: no jitter callable, no max().
                delay = self.interval
            else:
                delay = self.interval + max(0.0, jitter())
            self._event = self.sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Stop the task; any queued firing is canceled."""
        self._stopped = True
        self._event.cancel()


def all_of(sim: Simulator, signals: Iterable[Signal]) -> Signal:
    """A signal that fires once every signal in *signals* has fired.

    The combined signal's value is the list of individual values, in the
    order the signals were given.
    """
    sigs: Tuple[Signal, ...] = tuple(signals)
    combined = Signal(sim)
    remaining = len(sigs)
    if remaining == 0:
        combined.fired = True
        combined.value = []
        return combined
    values: List[Any] = [None] * remaining
    state = {"left": remaining}

    def make_waiter(i: int) -> Callable[[Any], None]:
        def waiter(value: Any) -> None:
            values[i] = value
            state["left"] -= 1
            if state["left"] == 0:
                combined.succeed(values)

        return waiter

    for i, sig in enumerate(sigs):
        sig.add_waiter(make_waiter(i))
    return combined

