"""Property-based tests for the shared link's queueing guarantees."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Link, Packet
from repro.sim import Simulator

packet_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),  # enqueue time
        st.integers(min_value=1, max_value=3000),  # wire bytes
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60)
@given(packet_plans)
def test_fifo_delivery_order(plans):
    """Packets enqueued earlier are always delivered no later."""
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.1)
    deliveries = []
    order = {"next": 0}

    def make_sender(seq, size):
        def send():
            link.send(
                Packet(size), lambda p, seq=seq: deliveries.append((seq, sim.now))
            )

        return send

    for seq, (when, size) in enumerate(sorted(plans, key=lambda x: x[0])):
        sim.schedule_at(when, make_sender(seq, size))
    sim.run_until(10_000.0)
    assert len(deliveries) == len(plans)
    times = [t for __, t in deliveries]
    assert times == sorted(times)
    # FIFO: sequence numbers of same-instant senders never reorder.
    seqs = [s for s, __ in deliveries]
    assert seqs == sorted(seqs)


@settings(max_examples=60)
@given(packet_plans)
def test_byte_conservation_and_capacity(plans):
    """Every byte offered is eventually sent, and never faster than the
    wire allows."""
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.0)
    for when, size in plans:
        sim.schedule_at(when, lambda s=size: link.send(Packet(s)))
    sim.run_until(60_000.0)
    total = sum(size for __, size in plans)
    assert link.bytes_sent == total
    assert link.trace.total_bytes == total
    # The last transmit completes no earlier than serialization allows.
    first = min(when for when, __ in plans)
    last_complete = max(link.trace.times)
    assert last_complete >= first + total / 1250.0 - 1e-6


@settings(max_examples=60)
@given(packet_plans)
def test_delivery_never_precedes_transmission(plans):
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.25)
    packets = []

    def make_sender(size):
        def send():
            p = Packet(size)
            packets.append(p)
            link.send(p, lambda __: None)

        return send

    for when, size in plans:
        sim.schedule_at(when, make_sender(size))
    sim.run_until(60_000.0)
    for p in packets:
        assert p.delivered_at is not None
        # enqueue -> transmit (>= size/rate) -> propagation
        min_delivery = p.enqueued_at + p.wire_bytes / 1250.0 + 0.25
        assert p.delivered_at >= min_delivery - 1e-9
