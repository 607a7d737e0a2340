"""Chaos regression suite: fault mechanics, baselines, and monotonicity.

The contract under test, in order of importance:

* with faults disabled, nothing anywhere changes — a no-fault run is
  byte-identical to a pre-fault-layer run;
* each fault mechanism (loss, corruption, jitter, reorder, outage) does
  exactly what its model says;
* the chaos sweep behaves like a network: more loss never *improves*
  tail latency, and the reliable transport keeps delivering.
"""

import json
import re

import pytest

from repro.errors import NetworkError
from repro.net import (
    DEFAULT_REORDER_HOLD_MS,
    FaultPlan,
    FaultyLink,
    Link,
    Packet,
    make_link,
    run_chaos_experiment,
    run_ping_experiment,
)
from repro.obs import observe
from repro.sim import Simulator


def snapshot_bytes(obs):
    return json.dumps(obs.snapshot(), sort_keys=True)


class TestMakeLinkDispatch:
    def test_none_plan_builds_plain_link(self):
        link = make_link(Simulator(), None)
        assert type(link) is Link

    def test_disabled_plan_builds_plain_link(self):
        link = make_link(Simulator(), FaultPlan())
        assert type(link) is Link

    def test_zero_loss_alone_is_disabled(self):
        """loss=0 with nothing else enabled is the clean wire, exactly."""
        link = make_link(Simulator(), FaultPlan(loss=0.0, seed=42))
        assert type(link) is Link

    def test_enabled_plan_builds_faulty_link(self):
        link = make_link(Simulator(), FaultPlan(loss=0.1))
        assert isinstance(link, FaultyLink)

    def test_kwargs_forwarded(self):
        link = make_link(
            Simulator(), FaultPlan(jitter_ms=1.0), bandwidth_mbps=2.0, name="wan0"
        )
        assert link.bandwidth_mbps == 2.0
        assert link.name == "wan0"


class TestNoFaultByteIdentity:
    """ISSUE acceptance: a disabled plan changes nothing, byte for byte."""

    def test_ping_observation_identical_with_disabled_plan(self):
        levels = [2.0, 6.0]
        with observe() as clean:
            baseline = run_ping_experiment(levels, seed=3, faults=None)
        with observe() as faded:
            disabled = run_ping_experiment(
                levels, seed=3, faults=FaultPlan(seed=99)
            )
        assert snapshot_bytes(clean) == snapshot_bytes(faded)
        assert [r.rtts_ms for r in baseline] == [r.rtts_ms for r in disabled]

    def test_chaos_zero_loss_baseline_is_the_clean_transport(self):
        """The loss=0 level of a default-base sweep runs on a plain Link:
        no retransmission machinery, no fault counters, flat latencies."""
        (result,) = run_chaos_experiment([0.0], duration_ms=2_000.0)
        assert result.delivered_fraction == 1.0
        assert result.retransmits == 0
        assert result.timeouts_fired == 0
        assert result.corrupt_drops == 0
        # Steady clock, no jitter: latencies flat to float rounding.
        spread = max(result.latencies_ms) - min(result.latencies_ms)
        assert spread < 1e-9


class TestParseValues:
    """A non-numeric value is a spec error naming its key, not a crash."""

    @pytest.mark.parametrize(
        "spec, key, value",
        [
            ("loss=abc", "loss", "abc"),
            ("jitter_ms=", "jitter_ms", ""),
            ("corrupt=0.01,reorder=x1", "reorder", "x1"),
            ("outage=a-2000", "outage", "a-2000"),
            ("outage=1000-b", "outage", "1000-b"),
        ],
    )
    def test_non_numeric_value_raises_network_error(self, spec, key, value):
        message = re.escape(f"{key} value {value!r} is not a number")
        with pytest.raises(NetworkError, match=message):
            FaultPlan.parse(spec)

    def test_numeric_values_still_parse(self):
        plan = FaultPlan.parse("loss=0.05,outage=5000-6000")
        assert plan.loss == 0.05
        assert plan.outages == ((5000.0, 6000.0),)


class TestFaultMechanisms:
    def run_packets(self, plan, n=50, interval_ms=10.0, **link_kwargs):
        sim = Simulator()
        link = FaultyLink(sim, plan, **link_kwargs)
        delivered = []
        for i in range(n):
            sim.schedule_at(
                i * interval_ms,
                lambda: link.send(Packet(200), delivered.append),
            )
        sim.run_until(n * interval_ms + 30_000.0)
        return sim, link, delivered

    def test_total_loss_drops_everything(self):
        __, link, delivered = self.run_packets(FaultPlan(loss=1.0))
        assert delivered == []
        assert link.fault_dropped == link.fault_sent == 50
        assert link.bytes_sent == 0  # lost packets never reach the wire

    def test_total_corruption_burns_bandwidth_but_delivers_nothing(self):
        __, link, delivered = self.run_packets(FaultPlan(corrupt=1.0))
        assert delivered == []
        assert link.fault_corrupted == link.fault_sent == 50
        assert link.bytes_sent > 0  # the checksum fails at the *receiver*

    def test_corruption_notifies_listeners(self):
        class Ear:
            corruptions = 0

            def on_corruption(self):
                self.corruptions += 1

        sim = Simulator()
        link = FaultyLink(sim, FaultPlan(corrupt=1.0))
        ear = Ear()
        link.add_listener(ear)
        link.send(Packet(100), lambda p: None)
        sim.run_until(1_000.0)
        assert ear.corruptions == 1

    def test_jitter_delays_but_delivers(self):
        sim, link, delivered = self.run_packets(FaultPlan(jitter_ms=5.0))
        assert len(delivered) == 50
        clean_sim = Simulator()
        clean = Link(clean_sim)
        base = []
        clean_sim.schedule_at(0.0, lambda: clean.send(Packet(200), base.append))
        clean_sim.run_until(1_000.0)
        # Every jittered delivery is at or after the clean delivery time
        # for the same send instant (exponential jitter is nonnegative).
        sends = [i * 10.0 for i in range(50)]
        clean_transit = base[0].delivered_at
        for send_at, pkt in zip(sends, delivered):
            assert pkt.delivered_at >= send_at + clean_transit - 1e-9

    def test_reorder_holds_packets_back(self):
        __, __, held = self.run_packets(FaultPlan(reorder=1.0), n=10)
        sim = Simulator()
        plain = Link(sim)
        base = []
        sim.schedule_at(0.0, lambda: plain.send(Packet(200), base.append))
        sim.run_until(100.0)
        clean_transit = base[0].delivered_at
        assert len(held) == 10
        for i, pkt in enumerate(held):
            assert pkt.delivered_at - (i * 10.0 + clean_transit) >= (
                DEFAULT_REORDER_HOLD_MS - 1e-9
            )

    def test_outage_window_drops_exactly_inside(self):
        plan = FaultPlan(outages=((100.0, 200.0),))
        sim = Simulator()
        link = FaultyLink(sim, plan)
        delivered = []
        for t in (50.0, 150.0, 199.9, 250.0):
            sim.schedule_at(t, lambda: link.send(Packet(64), delivered.append))
        sim.run_until(1_000.0)
        assert len(delivered) == 2  # 50 ms and 250 ms survive
        assert link.fault_dropped == 2

    def test_outage_edges_notify_listeners_and_count_duration(self):
        class Ear:
            def __init__(self):
                self.edges = []

            def on_outage(self, active):
                self.edges.append(active)

        with observe() as obs:
            sim = Simulator()
            link = FaultyLink(sim, FaultPlan(outages=((100.0, 350.0),)))
            ear = Ear()
            link.add_listener(ear)
            sim.run_until(1_000.0)
        assert ear.edges == [True, False]
        assert obs.metrics.counter("net.outage_ms").value == 250.0
        kinds = [e["kind"] for e in obs.tracer.events]
        assert "net.outage.start" in kinds and "net.outage.end" in kinds

    def test_listeners_without_hooks_are_ignored(self):
        sim = Simulator()
        link = FaultyLink(sim, FaultPlan(corrupt=1.0, outages=((1.0, 2.0),)))
        link.add_listener(object())  # no on_corruption / on_outage
        link.send(Packet(64), lambda p: None)
        sim.run_until(100.0)  # must not raise


class TestChaosSweep:
    LEVELS = [0.0, 0.05, 0.2]

    def results(self):
        return run_chaos_experiment(
            self.LEVELS, seed=0, duration_ms=20_000.0
        )

    def test_higher_loss_never_lowers_tail_latency(self):
        """ISSUE monotone check: p99 latency is nondecreasing in loss."""
        p99s = [r.latency_percentile_ms(99.0) for r in self.results()]
        assert p99s == sorted(p99s)

    def test_higher_loss_never_lowers_mean_latency(self):
        means = [r.mean_latency_ms for r in self.results()]
        assert means == sorted(means)

    def test_reliable_transport_keeps_delivering(self):
        for result in self.results():
            assert result.delivered_fraction == 1.0
            assert result.segments_abandoned == 0

    def test_retransmits_scale_with_loss(self):
        rexmits = [r.retransmits for r in self.results()]
        assert rexmits[0] == 0
        assert rexmits == sorted(rexmits)
        assert rexmits[-1] > rexmits[1] > 0

    def test_sweep_is_seed_deterministic(self):
        a = run_chaos_experiment([0.1], seed=5, duration_ms=5_000.0)
        b = run_chaos_experiment([0.1], seed=5, duration_ms=5_000.0)
        c = run_chaos_experiment([0.1], seed=6, duration_ms=5_000.0)
        assert a == b
        assert a != c

    def test_base_plan_faults_ride_along(self):
        """A corrupt-heavy base plan forces retransmits even at loss=0."""
        (result,) = run_chaos_experiment(
            [0.0],
            base=FaultPlan(corrupt=0.2),
            seed=1,
            duration_ms=10_000.0,
        )
        assert result.corrupt_drops > 0
        assert result.retransmits > 0
        assert result.delivered_fraction == 1.0


class TestTailDropGaugeRegression:
    """net/link.py fix: a tail drop publishes the queue depth that caused
    it *before* the drop counter moves, so metric consumers never observe
    the counter advance against a stale, non-full gauge."""

    def fill_and_overflow(self, max_queue, sends):
        with observe() as obs:
            sim = Simulator()
            # Slow wire: nothing dequeues while we overflow the queue.
            link = Link(sim, bandwidth_mbps=0.001, max_queue=max_queue)
            for __ in range(sends):
                link.send(Packet(1_000))
        return link, obs.snapshot()["metrics"]

    def test_drop_records_a_gauge_sample_at_full_depth(self):
        link, metrics = self.fill_and_overflow(max_queue=3, sends=5)
        assert link.packets_dropped == 1  # 1 on wire, 3 queued, 1 dropped
        gauge = metrics["gauges"]["net.queue_depth"]
        # 4 enqueue samples + 1 drop sample; the drop saw the full queue.
        assert gauge["samples"] == 5
        assert gauge["last"] == 3
        assert metrics["counters"]["net.packets_dropped"] == 1

    def test_zero_capacity_queue_still_gauges_drops(self):
        """max_queue=0 never enqueues: pre-fix the gauge had no samples at
        all while the drop counter climbed."""
        link, metrics = self.fill_and_overflow(max_queue=0, sends=3)
        assert link.packets_dropped == 3
        gauge = metrics["gauges"]["net.queue_depth"]
        assert gauge["samples"] == 3  # one observation per drop
        assert gauge["last"] == 0

    def test_unbounded_link_never_touches_the_drop_path(self):
        """The golden-trace guarantee: no max_queue, no extra gauge samples."""
        with observe() as obs:
            sim = Simulator()
            link = Link(sim, bandwidth_mbps=10.0)
            for __ in range(4):
                link.send(Packet(100))
            sim.run_until(1_000.0)
        gauge = obs.snapshot()["metrics"]["gauges"]["net.queue_depth"]
        assert gauge["samples"] == 4  # enqueues only
        assert link.packets_dropped == 0
