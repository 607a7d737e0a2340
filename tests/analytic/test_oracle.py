"""The analytic oracle: simulation must agree with queueing theory.

The artifact-digest manifest (``tests/golden/artifacts.json``) proves the
kernel's output never drifts byte-for-byte; this suite is the
*independent* check that it matches reality.  Every property asserts a
simulated point agrees with its closed-form prediction within
:data:`TOLERANCE` in the light-traffic regime (station utilization <= 0.5),
where the models' assumptions hold and finite windows sample tightly.  A
change that alters simulated *behaviour* and regenerates the manifest
still fails here if the new behaviour is wrong.

Determinism: every example derives its RNG seed from its own parameters,
so hypothesis re-runs and CI shards see identical sample paths; windows
are sized in *samples* (events), not wall time, so shrunk examples stay
fast and the sampling error stays inside the tolerance band with margin
(measured headroom is ~3x at the noisiest corners).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytic import (
    compare_closed_loop,
    compare_link_probe,
    compare_open_queue,
)
from repro.obs import observe
from repro.sim.rng import derive_seed

#: The oracle band: simulation within 10% of theory in light traffic.
TOLERANCE = 0.10

#: Light-traffic utilizations for the open-queue and link oracles.
light_rhos = st.floats(min_value=0.1, max_value=0.5)

#: Service scales (ms); relative errors are scale-invariant, this just
#: proves nothing in the substrate secretly depends on the time unit.
service_scales = st.floats(min_value=0.5, max_value=20.0)

oracle_settings = settings(
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow],
)


def _seed(*parts) -> int:
    """A deterministic per-example seed from the example's parameters."""
    return derive_seed(0, "oracle:" + ":".join(repr(p) for p in parts))


def _assert_within(rows, tolerance=TOLERANCE):
    failures = [
        f"{row.metric}: predicted={row.predicted:.6g} "
        f"simulated={row.simulated:.6g} "
        f"err={row.relative_error * 100:.1f}%"
        for row in rows
        if row.relative_error > tolerance
    ]
    assert not failures, "simulation disagrees with theory: " + "; ".join(
        failures
    )


class TestOpenQueueOracle:
    """M/M/1 and M/D/1 vs Poisson arrivals on raw kernel timers."""

    @oracle_settings
    @given(rho=light_rhos, service=service_scales)
    def test_mm1_agrees_in_light_traffic(self, rho, service):
        arrival_rate = rho / service
        # Window sized in arrivals: ~12k samples holds sampling error ~3%.
        duration = 12_000 / arrival_rate
        rows, observed = compare_open_queue(
            arrival_rate,
            service,
            service="exponential",
            duration_ms=duration,
            seed=_seed("mm1", rho, service),
        )
        assert observed.samples > 10_000
        _assert_within([r for r in rows if r.metric != "wait_ms"])

    @oracle_settings
    @given(rho=light_rhos, service=service_scales)
    def test_md1_agrees_in_light_traffic(self, rho, service):
        arrival_rate = rho / service
        duration = 12_000 / arrival_rate
        rows, observed = compare_open_queue(
            arrival_rate,
            service,
            service="deterministic",
            duration_ms=duration,
            seed=_seed("md1", rho, service),
        )
        _assert_within([r for r in rows if r.metric != "wait_ms"])

    def test_mean_wait_agrees_at_moderate_load(self):
        """Wq itself (small denominator at light load) pins at rho = 0.5."""
        rows, __ = compare_open_queue(
            0.05, 10.0, duration_ms=400_000.0, seed=_seed("wait", 0.5)
        )
        _assert_within(rows)


class TestLinkOracle:
    """M/G/1 (P-K, mixed packet sizes) vs the real shared link."""

    @oracle_settings
    @given(rho=light_rhos)
    def test_probe_delay_agrees_in_light_traffic(self, rho):
        rows, observed = compare_link_probe(
            rho,
            duration_ms=41_000.0,  # ~8k Poisson probes at 5 ms mean spacing
            seed=_seed("link", rho),
        )
        assert observed.samples > 6_000
        _assert_within(rows)

    def test_measured_utilization_tracks_offered_load(self):
        """The link's busy fraction matches rho plus the probe traffic."""
        __, observed = compare_link_probe(
            0.4, duration_ms=41_000.0, seed=_seed("util", 0.4)
        )
        # Probes add 64 B / 5 ms = 12.8 B/ms on a 1250 B/ms wire (~1%).
        expected = 0.4 + 12.8 / 1250.0
        assert observed.utilization == pytest.approx(expected, rel=0.05)

    def test_agrees_under_observation_too(self):
        """The instrumented link path obeys the same physics.

        Runs the comparison inside an observation so the recorder is on
        the hot path.
        """
        with observe():
            rows, __ = compare_link_probe(
                0.3, duration_ms=41_000.0, seed=_seed("obs", 0.3)
            )
        _assert_within(rows)


class TestClosedLoopOracle:
    """Exact MVA vs the fleet-shaped closed loop on the real kernel."""

    @oracle_settings
    @given(
        sessions=st.integers(min_value=1, max_value=10),
        think_ratio=st.floats(min_value=20.0, max_value=50.0),
    )
    def test_mva_agrees_in_light_traffic(self, sessions, think_ratio):
        service = 10.0
        think = think_ratio * service
        # Light traffic: population at most half the saturation knee.
        if sessions > 0.5 * (think_ratio + 1.0):
            sessions = max(1, int(0.5 * (think_ratio + 1.0)))
        duration = 3_000 * (think + 2 * service) / sessions
        rows, observed = compare_closed_loop(
            sessions,
            think_ms=think,
            service_ms=service,
            duration_ms=duration,
            seed=_seed("mva", sessions, think_ratio),
        )
        assert observed.completions > 2_000
        _assert_within(rows)

    def test_saturated_population_still_tracks_mva(self):
        """Past the knee the product-form model stays exact; so must we."""
        rows, __ = compare_closed_loop(
            32,
            think_ms=200.0,
            service_ms=10.0,
            duration_ms=300_000.0,
            seed=_seed("saturated", 32),
        )
        _assert_within(rows)
