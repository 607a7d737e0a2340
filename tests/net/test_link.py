"""Unit tests for the shared link and packets."""

import pytest

from repro.errors import NetworkError
from repro.net import Link, Packet
from repro.sim import Simulator


def test_packet_validation():
    with pytest.raises(NetworkError):
        Packet(0)
    with pytest.raises(NetworkError):
        Packet(10, payload_bytes=11)


def test_link_validation():
    sim = Simulator()
    with pytest.raises(NetworkError):
        Link(sim, bandwidth_mbps=0)
    with pytest.raises(NetworkError):
        Link(sim, propagation_ms=-1)


def test_transmission_time_10mbps():
    """1250 bytes at 10 Mbps take exactly 1 ms on the wire."""
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.0)
    delivered = []
    link.send(Packet(1250), lambda p: delivered.append(sim.now))
    sim.run_until(10.0)
    assert delivered == [pytest.approx(1.0)]


def test_propagation_added_after_transmit():
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.5)
    delivered = []
    link.send(Packet(1250), lambda p: delivered.append(sim.now))
    sim.run_until(10.0)
    assert delivered == [pytest.approx(1.5)]


def test_fifo_queueing_serializes_packets():
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.0)
    delivered = []
    for _ in range(3):
        link.send(Packet(1250), lambda p: delivered.append(sim.now))
    assert link.queue_depth == 2  # one on the wire, two waiting
    sim.run_until(10.0)
    assert delivered == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(3.0)]


def test_delivery_callback_optional():
    sim = Simulator()
    link = Link(sim)
    link.send(Packet(100))
    sim.run_until(10.0)
    assert link.packets_sent == 1
    assert link.bytes_sent == 100


def test_packet_timestamps():
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.25)
    p = Packet(1250)
    got = []
    link.send(p, got.append)
    sim.run_until(10.0)
    assert p.enqueued_at == 0.0
    assert p.delivered_at == pytest.approx(1.25)
    assert got == [p]


def test_trace_records_at_transmit_complete():
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0)
    link.send(Packet(1250))
    sim.run_until(10.0)
    assert list(link.trace.times) == [pytest.approx(1.0)]
    assert list(link.trace.sizes) == [1250]


def test_utilization():
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0)
    # 5 x 1250B = 5ms of wire time in a 10ms window = 50%
    for _ in range(5):
        link.send(Packet(1250))
    sim.run_until(10.0)
    assert link.utilization(0.0, 10.0) == pytest.approx(0.5)
    with pytest.raises(NetworkError):
        link.utilization(5.0, 5.0)


def test_queue_drains_and_link_goes_idle_then_resumes():
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.0)
    delivered = []
    link.send(Packet(1250), lambda p: delivered.append(sim.now))
    sim.run_until(5.0)
    link.send(Packet(1250), lambda p: delivered.append(sim.now))
    sim.run_until(10.0)
    assert delivered == [pytest.approx(1.0), pytest.approx(6.0)]
