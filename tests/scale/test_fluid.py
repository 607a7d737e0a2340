"""FluidBackground: the piecewise-linear workload math, deterministically.

Every case here is closed-form: constant-rate ticks make W(t) a sequence
of linear ramps, so build-up, drain, idle tails, discrete steps, and the
pro-rata window accounting can all be asserted exactly — no sampling, no
tolerance.  The exactness cases hold the vectorised window scan to the
bits of the plain per-tick loop it replaced.
"""

import random

import pytest

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.packet import Packet
from repro.scale.fluid import FluidBackground
from repro.sim.engine import Simulator


def make_link(**kwargs):
    return Link(Simulator(), **kwargs)


def loop_offered_bytes(tick_bytes, tick, start, t0, t1):
    """The per-tick reference scan: every tick, pro-rata, left to right."""
    total = 0.0
    for i, b in enumerate(tick_bytes):
        lo = start + i * tick
        hi = lo + tick
        overlap = min(hi, t1) - max(lo, t0)
        if overlap > 0:
            total += b * (overlap / tick)
    return total


class TestWorkloadIntegration:
    def test_overloaded_ticks_build_then_drain(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        # rho = 2 for 10 ticks of 1 ms: W grows 1 ms per ms, then drains.
        fluid = FluidBackground(link, 1.0, [2.0 * cap] * 10, attach=False)
        assert fluid.queueing_delay_ms(5.0) == pytest.approx(5.0)
        assert fluid.queueing_delay_ms(10.0) == pytest.approx(10.0)
        assert fluid.queueing_delay_ms(15.0) == pytest.approx(5.0)
        assert fluid.queueing_delay_ms(25.0) == 0.0
        assert fluid.peak_backlog_ms == pytest.approx(10.0)

    def test_subcritical_load_never_accumulates(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        fluid = FluidBackground(link, 1.0, [0.5 * cap] * 100, attach=False)
        for t in (0.25, 1.0, 7.5, 60.0, 100.0, 150.0):
            assert fluid.queueing_delay_ms(t) == 0.0

    def test_queries_interleave_with_exact_boundaries(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        # Bytes are per 2 ms tick: rho = bytes / (tick * capacity).
        fluid = FluidBackground(
            link, 2.0, [6.0 * cap, 0.0, 3.0 * cap, 0.0], attach=False
        )
        # Tick 0 (rho=3): +2 per tick of 2ms -> W(2)=4.
        assert fluid.queueing_delay_ms(1.0) == pytest.approx(2.0)
        assert fluid.queueing_delay_ms(2.0) == pytest.approx(4.0)
        # Tick 1 (rho=0): drains 1/ms.
        assert fluid.queueing_delay_ms(3.5) == pytest.approx(2.5)
        # Tick 2 (rho=1.5): +0.5/ms from t=4 (W(4)=2).
        assert fluid.queueing_delay_ms(6.0) == pytest.approx(3.0)
        # Tick 3 and beyond: drains to empty and stays there.
        assert fluid.queueing_delay_ms(11.0) == 0.0
        assert fluid.queueing_delay_ms(1000.0) == 0.0

    def test_time_never_runs_backwards(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        fluid = FluidBackground(link, 1.0, [2.0 * cap] * 4, attach=False)
        assert fluid.queueing_delay_ms(4.0) == pytest.approx(4.0)
        # A query at an earlier time returns current state, unchanged.
        assert fluid.queueing_delay_ms(2.0) == pytest.approx(4.0)

    def test_discrete_work_adds_a_step(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(link, 1.0, [0.0] * 10, attach=False)
        fluid.add_work_ms(3.0)
        assert fluid.queueing_delay_ms(0.0) == pytest.approx(3.0)
        # The step drains at full capacity through the idle ticks.
        assert fluid.queueing_delay_ms(2.0) == pytest.approx(1.0)
        assert fluid.queueing_delay_ms(4.0) == 0.0

    def test_step_on_top_of_fluid_sums(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        fluid = FluidBackground(link, 1.0, [1.0 * cap] * 20, attach=False)
        # rho = 1 exactly: fluid neither builds nor drains, so the
        # discrete step survives verbatim.
        fluid.add_work_ms(2.0)
        assert fluid.queueing_delay_ms(10.0) == pytest.approx(2.0)


class TestWindowAccounting:
    def test_offered_bytes_pro_rata_at_edges(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(
            link, 10.0, [1000.0, 2000.0, 4000.0], attach=False
        )
        assert fluid.offered_bytes(0.0, 30.0) == pytest.approx(7000.0)
        assert fluid.offered_bytes(5.0, 15.0) == pytest.approx(1500.0)
        assert fluid.offered_bytes(25.0, 95.0) == pytest.approx(2000.0)
        assert fluid.offered_bytes(100.0, 200.0) == 0.0

    def test_utilization_is_offered_over_capacity(self):
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        fluid = FluidBackground(link, 1.0, [0.5 * cap] * 10, attach=False)
        assert fluid.utilization(0.0, 10.0) == pytest.approx(0.5)
        assert fluid.utilization(0.0, 20.0) == pytest.approx(0.25)

    def test_totals_and_horizon(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(link, 2.5, [100.0, 300.0], attach=False)
        assert fluid.offered_bytes_total == pytest.approx(400.0)
        assert fluid.n_ticks == 2
        assert fluid.end_ms == pytest.approx(5.0)

    def test_empty_window_rejected(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(link, 1.0, [0.0], attach=False)
        with pytest.raises(NetworkError):
            fluid.offered_bytes(5.0, 5.0)


class TestExactness:
    """``==``, not ``approx``: the numpy scans keep the loop's float order."""

    def random_windows(self, rng, start, end, count=200):
        for __ in range(count):
            t0 = rng.uniform(start - 30.0, end + 30.0)
            yield t0, t0 + rng.uniform(1e-3, end - start + 60.0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("start", [0.0, 17.3])
    def test_offered_bytes_matches_the_loop(self, seed, start):
        rng = random.Random(seed)
        tick = rng.choice([0.2, 1.0, 2.5, 10.0])
        values = [rng.choice([0.0, rng.uniform(0.0, 5e4)]) for __ in range(500)]
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(link, tick, values, start_ms=start, attach=False)
        end = start + tick * len(values)
        windows = [
            (start - 50.0, start - 10.0),  # entirely before the series
            (end + 1.0, end + 40.0),  # entirely after it
            (start - 5.0, end + 5.0),  # the whole horizon
            (start + 0.25 * tick, start + 3.75 * tick),  # partial edge ticks
            *self.random_windows(rng, start, end),
        ]
        for t0, t1 in windows:
            assert fluid.offered_bytes(t0, t1) == loop_offered_bytes(
                values, tick, start, t0, t1
            )
        total = 0.0
        for b in values:
            total += b
        assert fluid.offered_bytes_total == total

    def test_appended_ticks_match_the_loop(self):
        rng = random.Random(9)
        link = make_link(bandwidth_mbps=10.0)
        presampled = [rng.uniform(0.0, 4e4) for __ in range(50)]
        fluid = FluidBackground(link, 1.0, presampled, start_ms=3.0, attach=False)
        appended = [rng.uniform(0.0, 4e4) for __ in range(50)]
        for i, b in enumerate(appended):
            fluid.offer_tick(b)
            # A window query between appends must not pin the buffers.
            values = presampled + appended[: i + 1]
            assert fluid.offered_bytes(0.0, 200.0) == loop_offered_bytes(
                values, 1.0, 3.0, 0.0, 200.0
            )
        for t0, t1 in self.random_windows(rng, 3.0, 103.0):
            assert fluid.offered_bytes(t0, t1) == loop_offered_bytes(
                values, 1.0, 3.0, t0, t1
            )

    def test_empty_series_offers_nothing(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(link, 1.0, (), attach=False)
        assert fluid.offered_bytes(0.0, 10.0) == 0.0
        assert fluid.offered_bytes_total == 0.0
        assert fluid.n_ticks == 0

    def test_delays_are_builtin_floats(self):
        np = pytest.importorskip("numpy")
        link = make_link(bandwidth_mbps=10.0)
        cap = link.bytes_per_ms
        fluid = FluidBackground(
            link, 1.0, np.array([2.0 * cap] * 10), attach=False
        )
        assert type(fluid.queueing_delay_ms(5.5)) is float
        assert type(fluid.offered_bytes(0.0, 4.5)) is float
        assert type(fluid.offered_bytes_total) is float

    def test_series_store_eight_bytes_per_tick(self):
        link = make_link(bandwidth_mbps=10.0)
        fluid = FluidBackground(link, 1.0, [1.0, 2.0], attach=False)
        fluid.offer_tick(3.0)
        assert fluid._rho.itemsize == 8
        assert fluid._bytes.itemsize == 8
        assert len(fluid._rho) == len(fluid._bytes) == 3


class TestLinkIntegration:
    def test_quiet_background_means_plain_delay(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.05)
        FluidBackground(link, 1.0, [0.0] * 100)
        packet = Packet(64, channel="probe")
        delivered = []
        link.send(packet, lambda p: delivered.append(sim.now))
        sim.run(10.0)
        service = packet.wire_bytes / link.bytes_per_ms
        assert delivered == [pytest.approx(service + 0.05)]

    def test_probe_waits_behind_fluid_backlog(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.0)
        cap = link.bytes_per_ms
        FluidBackground(link, 1.0, [2.0 * cap] * 4)
        packet = Packet(64, channel="probe")
        delivered = []

        def fire():
            link.send(packet, lambda p: delivered.append(sim.now))

        sim.schedule(4.0, fire)
        sim.run(20.0)
        # Sent at t=4 into W(4) = 4 ms of backlog, then its own service.
        service = packet.wire_bytes / cap
        assert delivered == [pytest.approx(4.0 + 4.0 + service)]

    def test_consecutive_probes_keep_fifo_order(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.0)
        FluidBackground(link, 1.0, [0.0] * 10)
        order = []
        for name in ("a", "b", "c"):
            link.send(
                Packet(1250, channel=name),
                lambda p, n=name: order.append((n, sim.now)),
            )
        sim.run(20.0)
        service = 1250 / link.bytes_per_ms
        assert [n for n, _ in order] == ["a", "b", "c"]
        # Each packet queues behind its predecessors' unfinished work.
        for i, (_, at) in enumerate(order):
            assert at == pytest.approx((i + 1) * service)

    def test_hybrid_path_still_counts_packets(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0)
        FluidBackground(link, 1.0, [0.0] * 10)
        link.send(Packet(64, channel="probe"))
        sim.run(10.0)
        assert link.packets_sent == 1
        assert link.bytes_sent == 64
        assert link.trace.times  # trace records hybrid sends too

    def test_attach_guards(self):
        sim = Simulator()
        link = Link(sim, bandwidth_mbps=10.0)
        FluidBackground(link, 1.0, [0.0])
        with pytest.raises(NetworkError):
            link.attach_background(object())
        busy = Link(sim, bandwidth_mbps=10.0)
        busy.send(Packet(1500))
        with pytest.raises(NetworkError):
            busy.attach_background(object())

    def test_constructor_validation(self):
        link = make_link()
        with pytest.raises(NetworkError):
            FluidBackground(link, 0.0, [0.0], attach=False)
        with pytest.raises(NetworkError):
            FluidBackground(link, 1.0, [0.0], start_ms=-1.0, attach=False)
        with pytest.raises(NetworkError, match="cannot be negative"):
            FluidBackground(link, 1.0, [-5000, 0], attach=False)
        fluid = FluidBackground(link, 1.0, [0.0], attach=False)
        with pytest.raises(NetworkError):
            fluid.add_work_ms(-1.0)
        with pytest.raises(NetworkError, match="cannot be negative"):
            fluid.offer_tick(-1)
