"""Ablation: the quantum-length "latency catch-22" (§4.2.1).

"The longer the quantum, the longer some thread three or four deep in the
queue will have to wait until it can run.  In contrast, if the quantum is
made shorter ... the full, run-to-block execution time of each thread
becomes fragmented across more distinct quanta."

We sweep the round-robin quantum with the Figure 3 typing workload at a
fixed queue length: stalls for a *short* interactive burst grow linearly
with the quantum, while a *long* interactive operation suffers from
fragmentation when quanta shrink.
"""

from conftest import emit

from repro.core import format_table
from repro.cpu import CPU, Burst, LinuxScheduler, Thread, sink_thread
from repro.sim import Simulator
from repro.workloads import run_stall_experiment

QUANTA_MS = [5.0, 10.0, 30.0, 60.0, 120.0]
QUEUE_LENGTH = 10


def stall_for_quantum(quantum_ms: float) -> float:
    """Average echo stall at fixed load under the given RR quantum."""
    (result,) = run_stall_experiment(
        "linux",
        [QUEUE_LENGTH],
        duration_ms=30_000.0,
        scheduler_factory=lambda: LinuxScheduler(quantum_ms=quantum_ms),
        include_idle_activity=False,
    )
    return result.average_stall_ms


def long_op_completion(quantum_ms: float, demand_ms: float = 500.0) -> float:
    """Wall completion of a 500 ms interactive op against 3 competitors.

    A 1 ms context-switch cost (dispatch plus cache/TLB pollution on
    late-90s hardware) is what makes fragmentation hurt: with 5 ms quanta
    a fifth of every slice is switch overhead.
    """
    sim = Simulator()
    cpu = CPU(sim, LinuxScheduler(quantum_ms=quantum_ms), context_switch_ms=1.0)
    for i in range(3):
        cpu.add_thread(sink_thread(f"sink{i}"))
    op = Thread("op")
    done = []
    op.push_burst(Burst(demand_ms, on_complete=done.append))
    cpu.add_thread(op)
    sim.run_until(60_000.0)
    return done[0]


def reproduce_quantum_sweep():
    return [
        (q, stall_for_quantum(q), long_op_completion(q)) for q in QUANTA_MS
    ]


def test_abl_quantum_sweep():
    rows = reproduce_quantum_sweep()

    emit(
        format_table(
            ["quantum (ms)", "echo stall @10 sinks (ms)", "500ms-op completion (ms)"],
            [(q, f"{s:.0f}", f"{c:.0f}") for q, s, c in rows],
            title="Ablation: the quantum latency catch-22",
        )
    )

    stalls = {q: s for q, s, __ in rows}
    completions = {q: c for q, __, c in rows}
    # Longer quanta stretch the inter-quantum wait for short echoes...
    assert stalls[120.0] > 4 * stalls[10.0]
    # ...while shorter quanta fragment a long run-to-block operation
    # across more slices, each paying switch overhead.
    assert completions[5.0] > completions[30.0]
    assert completions[5.0] > completions[120.0]
    assert completions[5.0] > 1_500.0  # 500ms of work behind 3 sinks
