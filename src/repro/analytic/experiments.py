"""Registered analytic experiments: predicted-vs-simulated overlay curves.

Two experiments put the closed-form models next to live simulation through
the standard executor pipeline (``--jobs``, result cache, tracing, CSV all
compose), the way Gunther's *X-Files* overlays queueing models on measured
X11 latency:

``analytic_link``
    The Figures 8–9 medium as an M/G/1 queue: one-way 64-byte probe delay
    through the shared 10 Mbps link across offered utilization
    ρ ∈ [0.1, 0.9], simulated vs Pollaczek–Khinchine.  Light traffic
    agrees within a few percent; the high-ρ rows show the widening
    sampling error a finite window pays near saturation.

``analytic_closed``
    The fleet's closed-loop shape as a closed network: N think/interact
    sessions sharing one server, simulated vs exact Mean Value Analysis
    throughput X(N) and response R(N) across session counts straddling
    the saturation knee N* = (Z + D)/D.

Both sweeps are pure functions of (parameters, seed): artifacts are
byte-identical across serial, ``--jobs N``, and warm-cache runs, and
``tests/golden/artifacts.json`` pins their digests on every one of those
paths — which is what makes them a standing oracle rather than a demo.
"""

from __future__ import annotations

from typing import NamedTuple

from ..core.registry import ExperimentSpec
from ..core.report import Column, Overlay
from ..sim.rng import derive_seed

#: Offered-utilization grid swept by ``analytic_link``.
LINK_RHO_LEVELS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

#: Simulated window per link point (ms); ~6k probe samples per point.
LINK_DURATION_MS = 30_000.0

#: Session counts swept by ``analytic_closed`` — the knee sits at
#: N* = (Z + D)/D = 21 for the think/service pair below.
CLOSED_SESSION_COUNTS = [1, 2, 4, 8, 16, 24, 32]

#: Closed-loop think and service means (ms): a 5 Hz-thinking user against
#: a 10 ms interaction, the fleet experiments' order of magnitude.
CLOSED_THINK_MS = 200.0
CLOSED_SERVICE_MS = 10.0

#: Simulated window per closed point (ms); long enough that the N=1
#: point's ~1400 cycles keep sampling error well inside the oracle band.
CLOSED_DURATION_MS = 300_000.0


class LinkPoint(NamedTuple):
    predicted_delay_ms: float
    simulated_delay_ms: float
    predicted_in_system: float
    simulated_in_system: float
    utilization: float
    samples: int


class ClosedPoint(NamedTuple):
    predicted_throughput: float
    simulated_throughput: float
    predicted_response_ms: float
    simulated_response_ms: float
    completions: int


def _analytic_link_point(rho: float, *, seed: int) -> LinkPoint:
    """One ρ cell: predicted vs simulated delay and occupancy."""
    from .validate import compare_link_probe

    rows, observed = compare_link_probe(
        rho,
        duration_ms=LINK_DURATION_MS,
        seed=derive_seed(seed, f"analytic_link:{rho}"),
    )
    delay, in_system = rows
    return LinkPoint(
        delay.predicted,
        delay.simulated,
        in_system.predicted,
        in_system.simulated,
        observed.utilization,
        observed.samples,
    )


def _analytic_closed_point(sessions: int, *, seed: int) -> ClosedPoint:
    """One N cell: predicted vs simulated throughput and response."""
    from .validate import compare_closed_loop

    rows, observed = compare_closed_loop(
        sessions,
        think_ms=CLOSED_THINK_MS,
        service_ms=CLOSED_SERVICE_MS,
        duration_ms=CLOSED_DURATION_MS,
        seed=derive_seed(seed, f"analytic_closed:{sessions}"),
    )
    throughput, response = rows
    return ClosedPoint(
        throughput.predicted,
        throughput.simulated,
        response.predicted,
        response.simulated,
        observed.completions,
    )


#: This module's experiments, in ``run all`` order; ``repro.cli``
#: registers them after the fleet group.
SPECS = (
    ExperimentSpec(
        "analytic_link", "M/G/1 vs simulated shared-link probe delay across rho", "analytic",
        point=_analytic_link_point, grid=LINK_RHO_LEVELS, keys=("rho",), record=LinkPoint,
        tables=[Overlay(
            "analytic_link: one-way 64B probe delay on the shared "
            "10 Mbps link — M/G/1 (P-K) vs simulation",
            Column("rho", "rho", "{:.1f}"),
            [("delay_ms", "delay_ms"), ("in_system", "in_system")],
        )],
    ),
    ExperimentSpec(
        "analytic_closed", "Exact MVA vs simulated closed-loop sessions across N", "analytic",
        point=_analytic_closed_point, grid=CLOSED_SESSION_COUNTS, keys=("sessions",),
        record=ClosedPoint,
        tables=[Overlay(
            "analytic_closed: N think/interact sessions on one server "
            f"(Z={CLOSED_THINK_MS:.0f} ms, D={CLOSED_SERVICE_MS:.0f} ms, "
            f"knee N*={(CLOSED_THINK_MS + CLOSED_SERVICE_MS) / CLOSED_SERVICE_MS:.0f}) "
            "— exact MVA vs simulation",
            Column("sessions", "sessions"),
            [("X (1/ms)", "throughput"), ("R (ms)", "response_ms")],
        )],
    ),
)
