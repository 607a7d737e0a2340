"""Tests for the TCP stream model and prototap accounting."""

import pytest

from repro.errors import NetworkError
from repro.net import (
    DISPLAY_CHANNEL,
    INPUT_CHANNEL,
    Link,
    Message,
    ProtoTap,
    TCPIP,
    TcpConnection,
    VIP,
    wire_bytes,
)
from repro.sim import Simulator


def make_conn(**kwargs):
    sim = Simulator()
    link = Link(sim, bandwidth_mbps=10.0, propagation_ms=0.0)
    conn = TcpConnection(sim, link, protocol="x", **kwargs)
    return sim, link, conn


def test_message_validation():
    with pytest.raises(NetworkError):
        Message("input", 0)


def test_send_message_single_frame():
    sim, link, conn = make_conn()
    delivered = []
    conn.send_message(INPUT_CHANNEL, 100, on_delivered=delivered.append)
    sim.run_until(10.0)
    assert link.packets_sent == 1
    assert link.bytes_sent == 100 + 58
    assert len(delivered) == 1
    assert delivered[0].delivered_at is not None


def test_send_message_segments_large_payload():
    sim, link, conn = make_conn()
    delivered = []
    conn.send_message(DISPLAY_CHANNEL, 3000, on_delivered=delivered.append)
    sim.run_until(100.0)
    assert link.packets_sent == 3
    assert delivered[0].delivered_at is not None
    # Delivery fires only once, on the final segment.
    assert len(delivered) == 1


def test_ack_packets_optional():
    sim, link, conn = make_conn(ack_bytes=58)
    conn.send_message(INPUT_CHANNEL, 100)
    sim.run_until(10.0)
    assert link.packets_sent == 2  # data + ack


def test_channel_messages_filter():
    sim, __, conn = make_conn()
    conn.send_message(INPUT_CHANNEL, 10)
    conn.send_message(DISPLAY_CHANNEL, 20)
    conn.send_message(DISPLAY_CHANNEL, 30)
    assert len(conn.channel_messages(INPUT_CHANNEL)) == 1
    assert len(conn.channel_messages(DISPLAY_CHANNEL)) == 2


class TestProtoTap:
    def test_per_channel_stats(self):
        tap = ProtoTap("rdp")
        tap.observe(Message(INPUT_CHANNEL, 64))
        tap.observe(Message(INPUT_CHANNEL, 64))
        tap.observe(Message(DISPLAY_CHANNEL, 500))
        trace = tap.trace()
        assert trace.input.messages == 2
        assert trace.input.bytes == 2 * wire_bytes(64, TCPIP)
        assert trace.display.messages == 1
        assert trace.total_messages == 3
        assert trace.total_bytes == trace.input.bytes + trace.display.bytes

    def test_avg_message_size(self):
        tap = ProtoTap("x")
        tap.observe(Message(DISPLAY_CHANNEL, 100))
        tap.observe(Message(DISPLAY_CHANNEL, 200))
        trace = tap.trace()
        expected = (wire_bytes(100, TCPIP) + wire_bytes(200, TCPIP)) / 2
        assert trace.display.avg_message_size == pytest.approx(expected)

    def test_empty_channel_avg_rejected(self):
        tap = ProtoTap("x")
        tap.observe(Message(DISPLAY_CHANNEL, 100))
        with pytest.raises(NetworkError):
            tap.trace().input.avg_message_size

    def test_observe_connection(self):
        sim, __, conn = make_conn()
        conn.send_message(INPUT_CHANNEL, 10)
        conn.send_message(DISPLAY_CHANNEL, 20)
        tap = ProtoTap("x")
        tap.observe_connection(conn)
        assert tap.trace().total_messages == 2

    def test_vip_row(self):
        tap = ProtoTap("lbx")
        for _ in range(10):
            tap.observe(Message(DISPLAY_CHANNEL, 64))
        row = tap.vip_table_row()
        assert row["normal_bytes"] == 10 * wire_bytes(64, TCPIP)
        assert row["vip_bytes"] == 10 * wire_bytes(64, VIP)
        assert row["savings"] == pytest.approx(20 / (64 + 58))

    def test_vip_row_empty_rejected(self):
        with pytest.raises(NetworkError):
            ProtoTap("x").vip_table_row()
