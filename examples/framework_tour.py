#!/usr/bin/env python3
"""A tour of the paper's evaluation framework as an API (§3).

The paper's methodological contribution is a structured way to evaluate
thin-client operating systems: pick a resource, decompose the load on it
into compulsory and dynamic parts, then measure how the OS turns that load
into user-perceived latency.  This example expresses one study per
resource in those terms using :mod:`repro.core.framework` — the same
studies the benchmarks run, but organized the way §3 presents them.

Run:  python examples/framework_tour.py
"""

from repro.core import (
    LoadKind,
    LoadProfile,
    LoadSource,
    Resource,
    ResourceStudy,
    format_table,
)
from repro.cpu import idle_profile
from repro.memory import run_memory_latency_experiment
from repro.net import run_ping_experiment
from repro.workloads import run_stall_experiment


def processor_study(os_name: str, sinks: int) -> ResourceStudy:
    """§4: compulsory idle load + sink load -> keystroke stalls."""
    load = LoadProfile(Resource.PROCESSOR)
    compulsory = idle_profile(os_name).expected_busy(1000.0) / 1000.0
    load.add(
        LoadSource(
            "idle services", LoadKind.COMPULSORY, Resource.PROCESSOR, compulsory
        )
    )
    load.add(
        LoadSource("sinks", LoadKind.DYNAMIC, Resource.PROCESSOR, float(sinks))
    )

    def probe():
        (result,) = run_stall_experiment(
            os_name, [sinks], duration_ms=20_000.0
        )
        # Stall instances are the perceptible tail; pad with the baseline
        # 50 ms cadence for non-stalled updates so fractions are honest.
        return result.stalls_ms or [0.1]

    return ResourceStudy(
        name=f"{os_name}: cpu @{sinks} sinks",
        resource=Resource.PROCESSOR,
        load=load,
        probe=probe,
    )


def memory_study(os_name: str) -> ResourceStudy:
    """§5: per-login compulsory memory + a streaming hog -> paging stalls."""
    from repro.memory import idle_memory_bytes, session_profile

    load = LoadProfile(Resource.MEMORY)
    load.add(
        LoadSource(
            "os base",
            LoadKind.COMPULSORY,
            Resource.MEMORY,
            float(idle_memory_bytes(os_name)),
        )
    )
    load.add(
        LoadSource(
            "login",
            LoadKind.COMPULSORY,
            Resource.MEMORY,
            float(session_profile(os_name).total_bytes),
        )
    )

    def probe():
        result = run_memory_latency_experiment(os_name, 1.2, runs=10)
        return result.latencies_ms

    return ResourceStudy(
        name=f"{os_name}: memory @120% demand",
        resource=Resource.MEMORY,
        load=load,
        probe=probe,
    )


def network_study(offered_mbps: float) -> ResourceStudy:
    """§6: synthetic offered load -> input-channel RTT."""
    load = LoadProfile(Resource.NETWORK)
    load.add(
        LoadSource(
            "synthetic traffic", LoadKind.DYNAMIC, Resource.NETWORK, offered_mbps
        )
    )

    def probe():
        (result,) = run_ping_experiment(
            [offered_mbps], duration_ms=30_000.0
        )
        return result.rtts_ms

    return ResourceStudy(
        name=f"network @{offered_mbps} Mbps",
        resource=Resource.NETWORK,
        load=load,
        probe=probe,
    )


def main() -> None:
    studies = [
        processor_study("nt_tse", 15),
        processor_study("linux", 15),
        memory_study("nt_tse"),
        memory_study("linux"),
        network_study(2.0),
        network_study(9.6),
    ]
    rows = []
    for study in studies:
        # study.run() evaluates the study's probe (and takes
        # threshold_ms=... to re-assess without rebuilding the study).
        result = study.run()
        a = result.assessment
        rows.append(
            (
                result.name,
                result.resource.value,
                f"{a.summary.average:.0f}ms",
                f"{a.worst_case_factor:.1f}x",
                f"{a.perceptible_fraction * 100:.0f}%",
                "yes" if a.acceptable else "no",
            )
        )
    print(
        format_table(
            ["study", "resource", "avg latency", "worst vs 100ms", "perceptible", "ok?"],
            rows,
            title="The behaviour → load → latency framework, one study per resource",
        )
    )
    print()
    print(
        "Each row follows §3's recipe: decompose the load (compulsory vs\n"
        "dynamic), run the latency-sensitive operation, and assess against\n"
        "the 100 ms perception threshold in all three of the paper's ways —\n"
        "worst-case excess, fraction perceptible, and jitter."
    )


if __name__ == "__main__":
    main()
