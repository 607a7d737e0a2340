"""Session negotiation and setup costs (§6.1.1, compulsory network load).

"Session setup costs in our configurations were 45,328 bytes and 16,312
bytes for TSE and Linux/X, respectively. ... these costs are rare and
ephemeral, and are typically not major contributors to latency."

The setup sequences below itemize a plausible handshake whose totals match
the paper's measurements; the itemization matters only for byte accounting
and for exercising the connection machinery in integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ProtocolError

#: direction constants for setup messages
TO_SERVER = "input"
TO_CLIENT = "display"


@dataclass(frozen=True)
class SetupMessage:
    """One message of the session-establishment exchange."""

    name: str
    direction: str  #: TO_SERVER or TO_CLIENT
    payload_bytes: int


@dataclass(frozen=True)
class SessionSetup:
    """The complete connection-establishment exchange for one system."""

    system: str
    messages: Tuple[SetupMessage, ...]

    @property
    def total_bytes(self) -> int:
        """Total setup bytes exchanged, both directions."""
        return sum(m.payload_bytes for m in self.messages)


#: TSE/RDP session establishment: connection sequence, capability
#: negotiation, licensing, and the initial desktop paint dominate.
TSE_SETUP = SessionSetup(
    "nt_tse",
    (
        SetupMessage("x224-connect", TO_SERVER, 412),
        SetupMessage("mcs-connect-initial", TO_SERVER, 1_604),
        SetupMessage("mcs-connect-response", TO_CLIENT, 1_216),
        SetupMessage("security-exchange", TO_SERVER, 1_096),
        SetupMessage("client-info", TO_SERVER, 1_340),
        SetupMessage("licensing", TO_CLIENT, 2_860),
        SetupMessage("demand-active+caps", TO_CLIENT, 3_172),
        SetupMessage("confirm-active+caps", TO_SERVER, 2_628),
        SetupMessage("sync+control+fontlist", TO_SERVER, 1_000),
        SetupMessage("fontmap+sync", TO_CLIENT, 1_200),
        SetupMessage("initial-desktop-paint", TO_CLIENT, 28_800),
    ),
)

#: X session establishment: the connection setup block (server info,
#: formats, screens), atom/extension round trips, font queries, and the
#: application's window/GC creation.
X_SETUP = SessionSetup(
    "linux",
    (
        SetupMessage("connection-request", TO_SERVER, 48),
        SetupMessage("connection-setup-block", TO_CLIENT, 8_232),
        SetupMessage("intern-atoms", TO_SERVER, 1_024),
        SetupMessage("atom-replies", TO_CLIENT, 1_024),
        SetupMessage("query-extensions", TO_SERVER, 640),
        SetupMessage("extension-replies", TO_CLIENT, 640),
        SetupMessage("open-query-fonts", TO_SERVER, 704),
        SetupMessage("font-replies", TO_CLIENT, 2_400),
        SetupMessage("create-windows-gcs-maps", TO_SERVER, 1_600),
    ),
)

_SETUPS = {"nt_tse": TSE_SETUP, "linux": X_SETUP}


def session_setup(system: str) -> SessionSetup:
    """The setup exchange for ``nt_tse`` (RDP) or ``linux`` (X)."""
    try:
        return _SETUPS[system]
    except KeyError:
        raise ProtocolError(f"no session setup modelled for {system!r}") from None
