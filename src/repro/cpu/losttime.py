"""Lost-time measurement (Endo et al., adopted by the paper's §4.1.1).

Endo et al. measured user-perceived latency on real hardware by combining
Pentium performance counters with idle-loop instrumentation to determine
when, and for how long, the CPU was busy.  In simulation the CPU's busy
intervals are directly observable, so this module reimplements the
*methodology* on top of the simulated trace:

* :class:`LostTimeMonitor` reduces a CPU's busy-slice trace to **busy
  events** — maximal busy stretches, with sub-millisecond scheduling gaps
  coalesced the way the hardware instrumentation's resolution would.
* :func:`run_idle_experiment` runs one OS's idle profile for a configurable
  window and returns the busy events, their cumulative-latency curve
  (Figure 2) and the utilization trace (Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..sim.stats import cumulative_latency_by_duration
from .cpusim import CPU
from .idle import idle_profile, make_scheduler

#: Busy intervals separated by less than this are one user-perceived event.
DEFAULT_MERGE_GAP_MS = 1.0

#: Figure 2's x-axis: event-duration thresholds in ms.
FIG2_THRESHOLDS_MS = tuple(float(t) for t in range(0, 601, 10))


class LostTimeMonitor:
    """Extract user-perceived busy events from a CPU's busy trace."""

    def __init__(self, cpu: CPU, merge_gap_ms: float = DEFAULT_MERGE_GAP_MS) -> None:
        self.cpu = cpu
        self.merge_gap_ms = merge_gap_ms

    def event_durations(self, t0: float, t1: float) -> List[float]:
        """Durations (ms) of the maximal busy events within ``[t0, t1)``.

        One pass over the merged busy trace, clipped to the window; busy
        stretches separated by at most ``merge_gap_ms`` are one event.
        """
        durations: List[float] = []
        gap = self.merge_gap_ms
        event_start = event_end = None
        for start, end in self.cpu.busy_trace.merged():
            start = max(start, t0)
            end = min(end, t1)
            if end <= start:
                continue
            if event_end is not None and start - event_end <= gap:
                event_end = end
            else:
                if event_end is not None:
                    durations.append(event_end - event_start)
                event_start, event_end = start, end
        if event_end is not None:
            durations.append(event_end - event_start)
        return durations

    def attribution(self, t0: float, t1: float) -> dict:
        """Busy ms per thread name in ``[t0, t1)`` — whose activity it was.

        This is the drill-down Endo et al.'s methodology enables: not just
        *that* the CPU was busy when the user's input arrived, but which
        service (Session Manager, Terminal Service, clock interrupts, ...)
        was responsible.  Sorted descending by cost.
        """
        out = {}
        for name, trace in self.cpu.busy_trace.by_label().items():
            busy = sum(
                min(end, t1) - max(start, t0)
                for start, end in trace.merged()
                if min(end, t1) > max(start, t0)
            )
            if busy > 0:
                out[name] = busy
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))


@dataclass
class IdleStateResult:
    """Everything Figures 1 and 2 need, for one operating system."""

    os_name: str
    duration_ms: float
    event_durations_ms: List[float]
    cpu: CPU

    @property
    def total_lost_time_ms(self) -> float:
        """Aggregate busy time of the idle run, in ms."""
        return sum(self.event_durations_ms)

    @property
    def idle_utilization(self) -> float:
        """Fraction of the window the 'idle' system kept the CPU busy."""
        return self.total_lost_time_ms / self.duration_ms

    def cumulative_latency_curve(
        self, thresholds_ms: Sequence[float] = FIG2_THRESHOLDS_MS
    ) -> Tuple[List[float], List[float]]:
        """Figure 2: (thresholds in ms, cumulative latency in seconds)."""
        curve = cumulative_latency_by_duration(
            self.event_durations_ms, thresholds_ms
        )
        return list(thresholds_ms), curve

    def utilization_trace(
        self, bin_ms: float = 1000.0, t0: float = 0.0, t1: Optional[float] = None
    ) -> Tuple[List[float], List[float]]:
        """Figure 1: per-bin CPU utilization over the idle run."""
        end = self.duration_ms if t1 is None else t1
        return self.cpu.busy_trace.utilization(t0, end, bin_ms)


def run_idle_experiment(
    os_name: str,
    duration_ms: float = 600_000.0,
    seed: int = 0,
    merge_gap_ms: float = DEFAULT_MERGE_GAP_MS,
) -> IdleStateResult:
    """Run *os_name*'s idle profile for *duration_ms* and measure lost time.

    This is the experiment behind Figures 1 and 2: boot the OS model, log
    nobody in, and record every busy event the instrumented idle loop sees.
    """
    sim = Simulator()
    rngs = RngRegistry(seed)
    cpu = CPU(sim, make_scheduler(os_name), name=os_name)
    profile = idle_profile(os_name)
    installed = profile.install(sim, cpu, rngs)
    sim.run_until(duration_ms)
    installed.stop()
    monitor = LostTimeMonitor(cpu, merge_gap_ms)
    return IdleStateResult(
        os_name=os_name,
        duration_ms=duration_ms,
        event_durations_ms=monitor.event_durations(0.0, duration_ms),
        cpu=cpu,
    )
