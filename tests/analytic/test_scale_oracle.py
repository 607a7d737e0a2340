"""The hybrid tier against the closed forms: an independent oracle.

The differential suites (tests/scale/test_hybrid_equivalence.py and
test_closed_equivalence.py) prove hybrid == exact at small N; this suite
proves hybrid == *theory* at the populations where no exact run is
affordable.  Two bridges:

* **Open tier**: :func:`repro.scale.hybrid.simulate_hybrid_link_probe` —
  a 100k-source batch-Poisson background is superposition-exact (N
  sources at λ is one Poisson stream at N·λ), so the M/G/1 load+probe
  mixture closed form applies unchanged, and the fluid integrator's
  probe delays must land on the P–K prediction in light traffic — same
  10% band, same rho range as the pre-scale link oracle in
  test_oracle.py.
* **Closed tier**: a :class:`~repro.net.loadgen.BatchClosedLoopSampler`
  over a shared single-server echo station *is* the machine-repairman
  network the exact MVA recursion solves (think+type = the Z delay,
  the echo station = the queueing center), so its simulated X(N) and
  R(N) = L/X must track :func:`~repro.analytic.mva.solve_mva_curve`
  across the knee, and the knee backed out of the simulated curve via
  the asymptote intercepts must land on
  :func:`~repro.analytic.mva.saturation_population` within one user.
"""

from functools import lru_cache

import pytest

pytest.importorskip("numpy")

from repro.analytic.mva import saturation_population, solve_mva_curve
from repro.analytic.validate import predict_link_probe
from repro.analytic.workbench import LOAD_FRAME_BYTES, PROBE_BYTES
from repro.errors import NetworkError
from repro.net.loadgen import BatchClosedLoopSampler
from repro.scale.hybrid import simulate_hybrid_link_probe

#: The oracle band, shared with tests/analytic/test_oracle.py.
TOLERANCE = 0.10

#: Light-traffic loads: the regime where P-K sampling error is small
#: within a 30 s window (two seeds averaged for margin).
RHOS = (0.3, 0.5)

SEEDS = (0, 1)


def averaged(rho):
    rows = [simulate_hybrid_link_probe(rho, seed=seed) for seed in SEEDS]
    return {
        "delay": sum(r.mean_delay_ms for r in rows) / len(rows),
        "seen": sum(r.mean_seen_in_system for r in rows) / len(rows),
        "util": sum(r.utilization for r in rows) / len(rows),
    }


class TestHybridLinkOracle:
    @pytest.mark.parametrize("rho", RHOS)
    def test_probe_delay_matches_the_mg1_mixture(self, rho):
        predicted, _ = predict_link_probe(rho)
        simulated = averaged(rho)["delay"]
        assert simulated == pytest.approx(predicted, rel=TOLERANCE)

    @pytest.mark.parametrize("rho", RHOS)
    def test_workload_seen_matches_the_pk_wait(self, rho):
        """W(t) at probe send times is the P-K wait, in frame services."""
        bytes_per_ms = 10.0 * 1e6 / 8.0 / 1000.0
        frame_service = LOAD_FRAME_BYTES / bytes_per_ms
        probe_service = PROBE_BYTES / bytes_per_ms
        predicted_delay, _ = predict_link_probe(rho)
        predicted_wait = predicted_delay - probe_service - 0.05
        simulated = averaged(rho)["seen"] * frame_service
        assert simulated == pytest.approx(predicted_wait, rel=TOLERANCE)

    @pytest.mark.parametrize("rho", RHOS)
    def test_utilization_reports_offered_plus_probe_load(self, rho):
        probe_share = (PROBE_BYTES / 5.0) / (10.0 * 1e6 / 8.0 / 1000.0)
        assert averaged(rho)["util"] == pytest.approx(
            rho + probe_share, abs=0.02
        )

    def test_validation(self):
        with pytest.raises(NetworkError):
            simulate_hybrid_link_probe(0.0)
        with pytest.raises(NetworkError):
            simulate_hybrid_link_probe(1.0)
        with pytest.raises(NetworkError):
            simulate_hybrid_link_probe(0.3, users=0)
        with pytest.raises(NetworkError):
            simulate_hybrid_link_probe(
                0.3, duration_ms=100.0, warmup_ms=200.0
            )

    def test_no_probe_samples_rejected(self):
        with pytest.raises(NetworkError, match="produced no probe samples"):
            simulate_hybrid_link_probe(
                0.3, users=10, probe_interval_ms=1e9, duration_ms=2_000.0
            )


#: The machine-repairman network the MVA recursion solves exactly:
#: think 190 ms + type 10 ms = a 200 ms delay center, one shared echo
#: server at 10 ms per visit.  Knee N* = (Z + D)/D = 21 users.
MVA_THINK_MS = 190.0
MVA_TYPE_MS = 10.0
MVA_ECHO_MS = 10.0
MVA_Z_MS = MVA_THINK_MS + MVA_TYPE_MS
MVA_TAU_MS = 2.0
MVA_POPULATIONS = (5, 12, 21, 40)
MVA_SEEDS = (3, 17, 29)
MVA_WARMUP_TICKS = 20_000  # 40 s: the shared station starts cold
MVA_MEASURE_TICKS = 300_000  # 600 s: CLT spread well under tolerance


@lru_cache(maxsize=None)
def simulated_closed_point(population):
    """Seed-averaged (X per ms, R ms) from the vectorized chain."""
    xs, rs = [], []
    for seed in MVA_SEEDS:
        sampler = BatchClosedLoopSampler(
            MVA_THINK_MS,
            MVA_TYPE_MS,
            MVA_ECHO_MS,
            MVA_TAU_MS,
            sources=population,
            seed=seed,
            burst_keys=1.0,
            echo_servers=1,
        )
        sampler.advance(MVA_WARMUP_TICKS)
        sampler.ticks_sampled = 0
        sampler.keystrokes_total = 0
        sampler.completions_total = 0
        sampler.thinking_ticks = 0
        sampler.typing_ticks = 0
        sampler.blocked_ticks = 0
        sampler.advance(MVA_MEASURE_TICKS)
        throughput = sampler.throughput_per_ms
        xs.append(throughput)
        rs.append(sampler.mean_blocked / throughput)  # Little: R = L/X
    return sum(xs) / len(xs), sum(rs) / len(rs)


class TestClosedLoopMvaOracle:
    """X(N)/R(N) from the count chain vs the exact MVA recursion.

    Tolerances calibrated to the tau-leap: X is nearly unbiased (< 1.5%
    observed across the grid); R carries the ~tau/2 within-tick smear,
    largest in light traffic where R itself is small (~8% at N = 5),
    vanishing past the knee where queueing dominates.
    """

    X_TOLERANCE = 0.03
    R_TOLERANCE = 0.12

    @pytest.fixture(scope="class")
    def mva_curve(self):
        solutions = solve_mva_curve(
            max(MVA_POPULATIONS), MVA_Z_MS, [MVA_ECHO_MS]
        )
        return {s.population: s for s in solutions}

    @pytest.mark.parametrize("population", MVA_POPULATIONS)
    def test_throughput_lands_on_the_recursion(self, population, mva_curve):
        simulated, _ = simulated_closed_point(population)
        assert simulated == pytest.approx(
            mva_curve[population].throughput, rel=self.X_TOLERANCE
        )

    @pytest.mark.parametrize("population", MVA_POPULATIONS)
    def test_response_lands_on_the_recursion(self, population, mva_curve):
        _, simulated = simulated_closed_point(population)
        assert simulated == pytest.approx(
            mva_curve[population].response_ms, rel=self.R_TOLERANCE
        )

    def test_simulated_knee_matches_saturation_population(self):
        """Back the knee out of the simulated curve alone.

        Light-traffic intercept: N/X(N) - R(N) estimates Z.  Heavy-
        traffic asymptote: 1/X(N) estimates D.  Their ratio must land on
        the analytic knee within one user — the cross-check that the
        simulated curve bends exactly where closed-network theory says.
        """
        light_n = MVA_POPULATIONS[0]
        heavy_n = MVA_POPULATIONS[-1]
        light_x, light_r = simulated_closed_point(light_n)
        heavy_x, _ = simulated_closed_point(heavy_n)
        z_hat = light_n / light_x - light_r
        d_hat = 1.0 / heavy_x
        knee_hat = (z_hat + d_hat) / d_hat
        knee = saturation_population(MVA_Z_MS, [MVA_ECHO_MS])
        assert knee == 21.0
        assert abs(knee_hat - knee) < 1.0

    def test_throughput_respects_the_asymptotic_bounds(self, mva_curve):
        """X(N) <= min(N/(Z+D), 1/D) — the bound the tables overlay."""
        for population in MVA_POPULATIONS:
            simulated, _ = simulated_closed_point(population)
            bound = min(
                population / (MVA_Z_MS + MVA_ECHO_MS), 1.0 / MVA_ECHO_MS
            )
            assert simulated <= 1.01 * bound
