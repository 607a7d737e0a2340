"""Packets on the simulated wire."""

from __future__ import annotations

from typing import Optional

from ..errors import NetworkError


class Packet:
    """One frame queued on (or delivered by) a link.

    ``wire_bytes`` is the full on-wire size including all framing; the
    split into payload and overhead is kept for per-channel accounting.
    """

    __slots__ = (
        "wire_bytes",
        "payload_bytes",
        "channel",
        "protocol",
        "enqueued_at",
        "delivered_at",
    )

    def __init__(
        self,
        wire_bytes: int,
        *,
        payload_bytes: Optional[int] = None,
        channel: str = "data",
        protocol: str = "",
    ) -> None:
        if wire_bytes <= 0:
            raise NetworkError("packet must have positive wire size")
        self.wire_bytes = wire_bytes
        self.payload_bytes = wire_bytes if payload_bytes is None else payload_bytes
        if self.payload_bytes > wire_bytes:
            raise NetworkError("payload larger than wire size")
        self.channel = channel
        self.protocol = protocol
        self.enqueued_at: Optional[float] = None
        self.delivered_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.wire_bytes}B {self.channel}"
            f"{' ' + self.protocol if self.protocol else ''}>"
        )
