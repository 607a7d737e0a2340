"""Property-based tests for the fault-injection layer's guarantees.

Two invariants carry the whole chaos-testing design:

* **Determinism** — a :class:`FaultPlan`'s per-packet schedule is a pure
  function of ``(seed, stream name)``: byte-identical whether computed
  twice in one process, in a worker process, or replayed from the result
  cache.
* **Conservation** — every packet offered to a :class:`FaultyLink` lands
  in exactly one fate bucket, so ``delivered + dropped + corrupted ==
  sent`` once in-flight traffic drains.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.exec import SweepExecutor, probe_process_backend
from repro.net import FaultPlan, FaultyLink, Packet
from repro.sim import Simulator

# Probabilities on a coarse grid: %g-formatted specs round-trip exactly.
probabilities = st.integers(min_value=0, max_value=100).map(lambda n: n / 100)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def plan_from(loss, burst_enter, corrupt, reorder, jitter, seed):
    return FaultPlan(
        loss=loss,
        burst_enter=burst_enter,
        corrupt=corrupt,
        reorder=reorder,
        jitter_ms=jitter,
        seed=seed,
    )


plans = st.builds(
    plan_from,
    probabilities,
    probabilities,
    probabilities,
    probabilities,
    st.integers(min_value=0, max_value=10).map(float),
    seeds,
)


def schedule_digest(point):
    """Module-level (picklable) sweep point: hash a plan's fate schedule."""
    spec, seed, stream, n = point
    plan = FaultPlan.parse(spec, seed=seed)
    blob = repr(plan.schedule(stream, n)).encode()
    return hashlib.sha256(blob).hexdigest()


class TestScheduleDeterminism:
    @settings(max_examples=60)
    @given(plans, st.integers(min_value=1, max_value=200))
    def test_same_seed_same_schedule(self, plan, n):
        """Two independent iterations of the same plan agree exactly."""
        assert plan.schedule("ether0", n) == plan.schedule("ether0", n)

    @settings(max_examples=60)
    @given(plans, st.integers(min_value=1, max_value=100))
    def test_schedule_is_prefix_stable(self, plan, n):
        """Asking for more fates never rewrites the ones already drawn."""
        assert plan.schedule("ether0", 2 * n)[:n] == plan.schedule("ether0", n)

    @settings(max_examples=40)
    @given(plans)
    def test_spec_round_trips(self, plan):
        """parse(spec()) reproduces the plan — and hence its schedule."""
        parsed = FaultPlan.parse(plan.spec(), seed=plan.seed)
        assert parsed == plan
        assert parsed.schedule("ether0", 64) == plan.schedule("ether0", 64)

    def test_distinct_streams_decorrelate(self):
        plan = FaultPlan(loss=0.5, seed=7)
        assert plan.schedule("ether0", 256) != plan.schedule("ether1", 256)

    def test_distinct_seeds_decorrelate(self):
        a = FaultPlan(loss=0.5, seed=1)
        b = FaultPlan(loss=0.5, seed=2)
        assert a.schedule("ether0", 256) != b.schedule("ether0", 256)

    def test_schedule_identical_across_serial_and_process_backends(self):
        """The --jobs N path sees the exact fault schedule serial runs see."""
        reason = probe_process_backend(schedule_digest)
        if reason is not None:
            pytest.skip(f"process backend unavailable: {reason}")
        points = [
            ("loss=0.1,corrupt=0.02,jitter_ms=1", 7, "ether0", 500),
            ("burst_enter=0.05,burst_exit=0.3", 11, "ether0", 500),
            ("loss=0.3,reorder=0.2", 13, "wan0", 500),
        ]
        serial = SweepExecutor().map(
            "fault-digests", schedule_digest, points
        )
        parallel = SweepExecutor(jobs=3).map(
            "fault-digests", schedule_digest, points
        )
        assert serial == parallel


class TestConservationLaw:
    @settings(max_examples=50)
    @given(
        plans,
        st.integers(min_value=1, max_value=120),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_every_packet_lands_in_one_bucket(self, plan, n, interval_ms):
        """delivered + dropped + corrupted == sent after the link drains."""
        sim = Simulator()
        link = FaultyLink(sim, plan, bandwidth_mbps=10.0)
        for i in range(n):
            sim.schedule_at(
                i * interval_ms, lambda: link.send(Packet(200), lambda p: None)
            )
        sim.run_until(n * interval_ms + 60_000.0)
        assert link.fault_sent == n
        assert (
            link.fault_delivered + link.fault_dropped + link.fault_corrupted
            == link.fault_sent
        )
        assert link.fault_in_flight == 0

    @settings(max_examples=30)
    @given(plans, st.integers(min_value=1, max_value=60))
    def test_conservation_holds_with_bounded_queue(self, plan, n):
        """Device tail drops are drops in fate accounting too."""
        sim = Simulator()
        link = FaultyLink(
            sim, plan, bandwidth_mbps=0.1, max_queue=2
        )  # slow wire forces queueing
        for __ in range(n):
            link.send(Packet(500), lambda p: None)
        sim.run_until(600_000.0)
        assert (
            link.fault_delivered + link.fault_dropped + link.fault_corrupted
            == link.fault_sent
            == n
        )
        assert link.fault_in_flight == 0
        # The base class saw the same tail drops.
        assert link.packets_dropped <= link.fault_dropped


class TestPlanValidation:
    @settings(max_examples=30)
    @given(
        st.sampled_from(
            ["loss", "burst_enter", "burst_exit", "burst_loss", "corrupt", "reorder"]
        ),
        st.one_of(
            st.floats(max_value=-0.001, min_value=-100),
            st.floats(min_value=1.001, max_value=100),
        ),
    )
    def test_out_of_range_probabilities_rejected(self, name, value):
        with pytest.raises(NetworkError):
            FaultPlan(**{name: value})

    def test_negative_delays_rejected(self):
        with pytest.raises(NetworkError):
            FaultPlan(jitter_ms=-1.0)
        with pytest.raises(NetworkError):
            FaultPlan(reorder_hold_ms=-0.5)

    def test_bad_outage_windows_rejected(self):
        with pytest.raises(NetworkError):
            FaultPlan(outages=((5.0, 5.0),))
        with pytest.raises(NetworkError):
            FaultPlan(outages=((-1.0, 5.0),))

    def test_default_plan_is_disabled(self):
        plan = FaultPlan()
        assert not plan.enabled
        assert plan.spec() == ""

    def test_parse_rejects_malformed_specs(self):
        with pytest.raises(NetworkError):
            FaultPlan.parse("loss")  # no '='
        with pytest.raises(NetworkError):
            FaultPlan.parse("outage=1000")  # no end
        with pytest.raises(NetworkError):
            FaultPlan.parse("teleport=0.5")  # unknown key

    def test_parse_empty_spec_is_disabled(self):
        assert not FaultPlan.parse("").enabled
        assert not FaultPlan.parse("  ,  ").enabled

    def test_outage_at(self):
        plan = FaultPlan(outages=((10.0, 20.0), (30.0, 40.0)))
        assert plan.outage_at(15.0)
        assert plan.outage_at(10.0) and not plan.outage_at(20.0)
        assert not plan.outage_at(25.0)
        assert plan.outage_at(35.0)

    @settings(max_examples=40)
    @given(plans)
    def test_fates_never_mark_lost_and_corrupt_together(self, plan):
        for fate in plan.schedule("ether0", 200):
            assert not (fate.lost and fate.corrupt)
            assert fate.extra_delay_ms >= 0.0
