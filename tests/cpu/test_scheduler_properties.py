"""Property-based tests: scheduler invariants under random workloads.

Whatever the policy, a work-conserving single CPU must satisfy:

* every finite burst submitted eventually completes (given enough idle
  capacity at the end of the run);
* total charged CPU time equals the merged busy-trace time and never
  exceeds wall time;
* the CPU is never idle while a thread is runnable;
* dynamic priorities stay within the scheduler's legal range.

Random workloads are generated as (arrival time, demand) pairs across a
handful of threads and run against all three schedulers.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import (
    CPU,
    Burst,
    LinuxScheduler,
    NTConfig,
    NTScheduler,
    SVR4Scheduler,
    Thread,
    ThreadState,
)
from repro.cpu.nt import NT_LEVELS
from repro.cpu.svr4 import GLOBAL_LEVELS
from repro.sim import Simulator

SCHEDULERS = {
    "nt": lambda: NTScheduler(NTConfig.workstation()),
    "tse": lambda: NTScheduler(NTConfig.tse()),
    "linux": LinuxScheduler,
    "svr4": SVR4Scheduler,
}

# A workload: per-thread lists of (arrival_ms, demand_ms).
workloads = st.lists(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=500.0),
            st.floats(min_value=0.1, max_value=80.0),
        ),
        min_size=0,
        max_size=6,
    ),
    min_size=1,
    max_size=5,
)

thread_flags = st.tuples(st.booleans(), st.booleans())  # (gui, foreground)


def run_workload(make_scheduler, per_thread, flags):
    sim = Simulator()
    cpu = CPU(sim, make_scheduler())
    threads = []
    completed = []
    expected = 0
    for i, bursts in enumerate(per_thread):
        gui, foreground = flags[i % len(flags)] if flags else (False, False)
        thread = Thread(f"t{i}", gui=gui, foreground=foreground)
        cpu.add_thread(thread)
        threads.append(thread)
        for arrival, demand in bursts:
            expected += 1
            sim.schedule_at(
                arrival,
                lambda t=thread, d=demand: cpu.submit(
                    t, Burst(d, on_complete=completed.append)
                ),
            )
    # Enough tail time for everything to drain: total demand + arrivals.
    total_demand = sum(d for bursts in per_thread for __, d in bursts)
    sim.run_until(500.0 + total_demand + 1_000.0)
    return sim, cpu, threads, completed, expected


@settings(max_examples=25)
@given(workloads, st.lists(thread_flags, min_size=1, max_size=5))
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_all_bursts_complete_and_time_is_conserved(name, per_thread, flags):
    sim, cpu, threads, completed, expected = run_workload(
        SCHEDULERS[name], per_thread, flags
    )
    # (1) nothing is lost: every submitted burst completed.
    assert len(completed) == expected
    # (2) all threads end blocked (no stuck READY/RUNNING state).
    for thread in threads:
        assert thread.state in (ThreadState.BLOCKED, ThreadState.NEW) or (
            not thread.has_work
        )
    # (3) charged time == busy-trace time <= wall time.
    charged = sum(t.cpu_time for t in cpu.threads)
    assert charged == pytest.approx(cpu.busy_trace.total_busy(), abs=1e-6)
    assert charged <= sim.now + 1e-6
    total_demand = sum(d for bursts in per_thread for __, d in bursts)
    assert charged == pytest.approx(total_demand, abs=1e-6)


@settings(max_examples=25)
@given(workloads)
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_work_conservation(name, per_thread):
    """The CPU is busy whenever work is pending: completion time of the
    last burst is never later than last-arrival + total demand."""
    sim, cpu, threads, completed, expected = run_workload(
        SCHEDULERS[name], per_thread, [(False, False)]
    )
    if not expected:
        return
    total_demand = sum(d for bursts in per_thread for __, d in bursts)
    last_arrival = max(a for bursts in per_thread for a, __ in bursts)
    assert max(completed) <= last_arrival + total_demand + 1e-6


@settings(max_examples=25)
@given(workloads, st.lists(thread_flags, min_size=1, max_size=5))
def test_nt_priorities_stay_in_range(per_thread, flags):
    sim = Simulator()
    scheduler = NTScheduler(NTConfig.workstation())
    cpu = CPU(sim, scheduler)
    threads = []
    for i, bursts in enumerate(per_thread):
        gui, fg = flags[i % len(flags)]
        thread = Thread(f"t{i}", gui=gui, foreground=fg)
        cpu.add_thread(thread)
        threads.append(thread)
        for arrival, demand in bursts:
            sim.schedule_at(
                arrival,
                lambda t=thread, d=demand: cpu.submit(t, Burst(d)),
            )

    def check():
        for thread in threads:
            assert 0 <= thread.priority < NT_LEVELS
            # Boosts only ever raise above base; decay stops at base.
            assert thread.priority >= thread.base_priority

    sim.every(25.0, check)
    sim.run_until(2_000.0)


@settings(max_examples=25)
@given(workloads)
def test_svr4_priorities_stay_in_range(per_thread):
    sim = Simulator()
    cpu = CPU(sim, SVR4Scheduler())
    threads = []
    for i, bursts in enumerate(per_thread):
        thread = Thread(f"t{i}", gui=(i % 2 == 0))
        cpu.add_thread(thread)
        threads.append(thread)
        for arrival, demand in bursts:
            sim.schedule_at(
                arrival,
                lambda t=thread, d=demand: cpu.submit(t, Burst(d)),
            )

    def check():
        for thread in threads:
            assert 0 <= thread.priority < GLOBAL_LEVELS

    sim.every(25.0, check)
    sim.run_until(2_000.0)
