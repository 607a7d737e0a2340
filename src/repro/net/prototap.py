"""prototap: protocol tracing and per-channel accounting (§6.1.2).

The paper's authors wrote *prototap*, "our own protocol tracing software
based on the tcpdump pcap packet sniffing library", to break a session's
traffic into the **input channel** (client → server: keystrokes, mouse) and
the **display channel** (server → client: drawing).  This module is its
simulation equivalent.

Accounting model: protocol **messages** are counted individually (the
paper's message columns), but messages written together in one flush share
TCP segments — a keystroke's lone event message pays a full header, while
LBX's many tiny proxy chunks emitted in one write amortize theirs.  Wire
bytes are therefore computed per *flush group*: the group's payloads are
concatenated and segmented under the configured header stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import NetworkError
from .framing import DEFAULT_MTU, TCPIP, VIP, HeaderStack, wire_bytes

#: The two channels of a remote-display session (§6).
INPUT_CHANNEL = "input"
DISPLAY_CHANNEL = "display"


@dataclass
class KindStats:
    """Per-message-kind totals (Danskin-style idiom profiling)."""

    kind: str
    messages: int = 0
    payload_bytes: int = 0

    @property
    def avg_payload(self) -> float:
        """Mean payload bytes per message of this kind."""
        if self.messages == 0:
            raise NetworkError(f"no messages of kind {self.kind!r}")
        return self.payload_bytes / self.messages


@dataclass(frozen=True)
class ChannelStats:
    """Byte/message totals for one directed channel."""

    channel: str
    bytes: int
    messages: int

    @property
    def avg_message_size(self) -> float:
        """Mean wire bytes per message on this channel."""
        if self.messages == 0:
            raise NetworkError(f"no messages on channel {self.channel!r}")
        return self.bytes / self.messages


@dataclass(frozen=True)
class ProtocolTrace:
    """The full §6.1.2 row set for one protocol's session."""

    protocol: str
    input: ChannelStats
    display: ChannelStats

    @property
    def total_bytes(self) -> int:
        """Both channels' wire bytes (the paper's "total" row)."""
        return self.input.bytes + self.display.bytes

    @property
    def total_messages(self) -> int:
        """Both channels' message counts."""
        return self.input.messages + self.display.messages

    @property
    def avg_message_size(self) -> float:
        """Mean wire bytes per message across both channels."""
        if self.total_messages == 0:
            raise NetworkError("empty protocol trace")
        return self.total_bytes / self.total_messages


class ProtoTap:
    """Accumulates flush groups of messages and renders channel statistics.

    Accepts anything with ``channel`` and ``payload_bytes`` attributes
    (:class:`repro.net.tcpstream.Message`,
    :class:`repro.protocols.base.EncodedMessage`).
    """

    def __init__(self, protocol: str, mtu: int = DEFAULT_MTU) -> None:
        self.protocol = protocol
        self.mtu = mtu
        #: (channel, [(payload, kind)]) — one entry per flush group.
        self._groups: List[Tuple[str, List[Tuple[int, str]]]] = []

    # -- recording ----------------------------------------------------------

    @staticmethod
    def _entry(message) -> Tuple[int, str]:
        return (message.payload_bytes, getattr(message, "kind", "") or "")

    def observe(self, message) -> None:
        """Record one message flushed on its own."""
        self._groups.append((message.channel, [self._entry(message)]))

    def observe_step(self, messages: Iterable) -> None:
        """Record messages flushed together (one interaction step).

        Messages of the same channel within the step share segments.
        """
        by_channel: Dict[str, List[Tuple[int, str]]] = {}
        for message in messages:
            by_channel.setdefault(message.channel, []).append(
                self._entry(message)
            )
        for channel, entries in by_channel.items():
            self._groups.append((channel, entries))

    def observe_connection(self, connection) -> None:
        """Record every message already sent on a TcpConnection (one group
        per message — the connection already framed them individually)."""
        for message in connection.messages:
            self.observe(message)

    # -- reduction -----------------------------------------------------------

    def _bytes_for(self, channel: str, stack: HeaderStack) -> int:
        total = 0
        for group_channel, entries in self._groups:
            if group_channel == channel:
                payload = sum(size for size, __ in entries)
                total += wire_bytes(payload, stack, self.mtu)
        return total

    def _channel_stats(self, channel: str) -> ChannelStats:
        messages = sum(
            len(entries)
            for group_channel, entries in self._groups
            if group_channel == channel
        )
        return ChannelStats(
            channel=channel,
            bytes=self._bytes_for(channel, TCPIP),
            messages=messages,
        )

    def kind_breakdown(self, channel: str) -> Dict[str, "KindStats"]:
        """Danskin-style idiom profiling: payload bytes/messages by kind.

        Danskin's X-protocol profiling work (the inspiration for prototap)
        characterized which request idioms carried a session's bytes; this
        reduction does the same for any protocol's message kinds on one
        channel ("put-image" vs "requests" on X, "orders" vs
        "bitmap-update" on RDP, ...).  Payload bytes only — header
        amortization across kinds in a shared segment is not attributable.
        """
        out: Dict[str, KindStats] = {}
        for group_channel, entries in self._groups:
            if group_channel != channel:
                continue
            for size, kind in entries:
                stats = out.get(kind)
                if stats is None:
                    stats = KindStats(kind=kind)
                    out[kind] = stats
                stats.messages += 1
                stats.payload_bytes += size
        return out

    def trace(self) -> ProtocolTrace:
        """The per-channel table (bytes on the wire under TCP/IP)."""
        return ProtocolTrace(
            protocol=self.protocol,
            input=self._channel_stats(INPUT_CHANNEL),
            display=self._channel_stats(DISPLAY_CHANNEL),
        )

    def vip_table_row(self) -> Dict[str, float]:
        """The VIP table row: normal bytes, VIP bytes, fractional savings."""
        if not self._groups:
            raise NetworkError("empty protocol trace")
        channels = {channel for channel, __ in self._groups}
        normal = sum(self._bytes_for(c, TCPIP) for c in channels)
        vip = sum(self._bytes_for(c, VIP) for c in channels)
        return {
            "normal_bytes": normal,
            "vip_bytes": vip,
            "savings": (normal - vip) / normal,
        }
