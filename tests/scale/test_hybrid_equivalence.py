"""Differential equivalence: the hybrid tier against the exact tier.

The hybrid tier's whole claim is that a presampled fluid background is
*statistically* interchangeable with per-event background users while the
probes stay exact packets.  This suite pins that claim where both tiers
are affordable (N = 32 users, the exact tier's comfortable range):

* **Distributional equivalence** — seed-averaged RTT mean/p50/p90/p99
  and utilization agree within tolerances calibrated to three seeds'
  Monte-Carlo spread (p50 is byte-identical: at rho < 0.5 the median
  probe sees an empty queue in both tiers).
* **Shared probe stream** — both modes draw probe times from the same
  named stream, so the sample *count* matches exactly, seed for seed.
* **Purity** — a point is a pure function of (parameters, seed): same
  seed, same observation object.

Tolerances are deliberately asymmetric with the suite's purpose: tight
enough to catch a broken integrator (the fluid tier off by a tick width
shifts p99 by 2x at these loads), loose enough to pass forever on the
pinned seeds.
"""

from functools import lru_cache

import pytest

pytest.importorskip("numpy")

from repro.errors import NetworkError
from repro.scale.hybrid import (
    MODES,
    run_load_curve_point,
    simulate_hybrid_link_probe,
)

#: Small-N point both tiers can afford; ~42% utilization, where queues
#: are real but stable (the regime the curve's knee grows out of).
N_USERS = 32
POINT_KW = dict(
    per_user_bps=131_250.0,
    bandwidth_mbps=10.0,
    tick_ms=0.2,
    duration_ms=20_000.0,
    warmup_ms=1_000.0,
)
SEEDS = (7, 42, 1234)
STATS = ("rtt_mean_ms", "rtt_p50_ms", "rtt_p90_ms", "rtt_p99_ms",
         "utilization")


@lru_cache(maxsize=None)
def observation(process, mode, seed):
    return run_load_curve_point(
        N_USERS, process=process, mode=mode, seed=seed, **POINT_KW
    )


def seed_averaged(process, mode):
    rows = [observation(process, mode, seed) for seed in SEEDS]
    return {
        stat: sum(getattr(row, stat) for row in rows) / len(rows)
        for stat in STATS
    }


class TestDistributionalEquivalence:
    #: Calibrated against three-seed Monte-Carlo spread; see module doc.
    TOLERANCES = {
        "rtt_mean_ms": 0.20,
        "rtt_p50_ms": 0.02,
        "rtt_p90_ms": 0.20,
        "rtt_p99_ms": 0.35,
        "utilization": 0.05,
    }

    @pytest.mark.parametrize("process", ["poisson", "onoff"])
    def test_hybrid_matches_exact_statistics(self, process):
        exact = seed_averaged(process, "exact")
        hybrid = seed_averaged(process, "hybrid")
        for stat, tolerance in self.TOLERANCES.items():
            assert hybrid[stat] == pytest.approx(
                exact[stat], rel=tolerance
            ), f"{process} {stat}: hybrid {hybrid[stat]} vs exact {exact[stat]}"

    @pytest.mark.parametrize("process", ["poisson", "onoff"])
    def test_probe_stream_is_mode_independent(self, process):
        """Both tiers see the identical probe schedule: same count."""
        for seed in SEEDS:
            exact = observation(process, "exact", seed)
            hybrid = observation(process, "hybrid", seed)
            assert exact.samples == hybrid.samples
            assert exact.samples > 2_000  # CO-safe: the stream never stalls

    def test_busier_wire_means_slower_probes(self):
        """The hybrid curve bends the right way (Figure 8's shape)."""
        points = [
            run_load_curve_point(
                users, per_user_bps=100.0, duration_ms=10_000.0, seed=11
            )
            for users in (10_000, 50_000, 90_000)
        ]
        means = [p.rtt_mean_ms for p in points]
        assert means == sorted(means)
        assert points[-1].rtt_p99_ms > 2.0 * points[0].rtt_p99_ms


class TestPurity:
    def test_same_seed_same_observation(self):
        a = run_load_curve_point(1_000, duration_ms=5_000.0, seed=3)
        b = run_load_curve_point(1_000, duration_ms=5_000.0, seed=3)
        assert a == b  # frozen dataclass: field-for-field identity

    def test_different_seeds_differ(self):
        a = run_load_curve_point(1_000, duration_ms=5_000.0, seed=3)
        b = run_load_curve_point(1_000, duration_ms=5_000.0, seed=4)
        assert a != b


class TestValidation:
    def test_mode_vocabulary(self):
        assert MODES == ("exact", "hybrid")
        with pytest.raises(NetworkError):
            run_load_curve_point(10, mode="fluid")

    def test_bad_windows_rejected(self):
        with pytest.raises(NetworkError):
            run_load_curve_point(10, duration_ms=500.0, warmup_ms=1_000.0)
        with pytest.raises(NetworkError):
            run_load_curve_point(10, probe_interval_ms=0.0)

    def test_no_probe_samples_rejected(self):
        with pytest.raises(NetworkError, match="load-curve point produced no"):
            run_load_curve_point(
                10, probe_interval_ms=1e9, duration_ms=2_000.0, seed=1
            )

    def test_hybrid_link_probe_rejects_zero_interval(self):
        with pytest.raises(NetworkError, match="probe interval must be positive"):
            simulate_hybrid_link_probe(0.5, probe_interval_ms=0)

    def test_bad_process_rejected(self):
        with pytest.raises(NetworkError):
            run_load_curve_point(10, process="pareto")
