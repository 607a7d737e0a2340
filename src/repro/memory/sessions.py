"""Per-login session memory profiles (the paper's §5.1.1 tables).

Compulsory memory load has two components:

1. the OS base usage with no sessions — **17 MB for Linux, 19 MB for TSE**;
2. the private, per-user memory of a *minimal login* — the process tables
   the paper reports (private consumption only, excluding amortized shared
   code pages):

   ========================  =========  =============================
   Linux/X                   752 KB     in.rshd + xterm + bash
   TSE (typical, Explorer)   3,244 KB   explorer/csrss/loadwc/nddeagnt/winlogin
   TSE (light, DOS prompt)   2,100 KB   command.com instead of explorer
   ========================  =========  =============================

These tables feed the per-session address-space sizes in the memory
experiments and the capacity planner's memory dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import MemoryError_
from ..units import KB, MB, kb, mb


@dataclass(frozen=True)
class ProcessMemory:
    """Private, per-user memory of one login process."""

    name: str
    private_kb: int


@dataclass(frozen=True)
class SessionProfile:
    """The process set of one minimal login."""

    os_name: str
    variant: str
    processes: Tuple[ProcessMemory, ...]

    @property
    def total_kb(self) -> int:
        """Total private per-login memory, in KB (the paper's unit)."""
        return sum(p.private_kb for p in self.processes)

    @property
    def total_bytes(self) -> int:
        """Total private per-login memory, in bytes."""
        return self.total_kb * KB


#: OS base memory with no sessions (§5.1.1): "memory load in this state was
#: roughly comparable between the two systems, 17MB for Linux and 19MB for TSE."
IDLE_MEMORY_BYTES: Dict[str, int] = {
    "linux": mb(17),
    "nt_tse": mb(19),
}

LINUX_SESSION = SessionProfile(
    "linux",
    "typical",
    (
        ProcessMemory("in.rshd", 204),
        ProcessMemory("xterm", 372),
        ProcessMemory("bash", 176),
    ),
)

TSE_SESSION_TYPICAL = SessionProfile(
    "nt_tse",
    "typical",
    (
        ProcessMemory("explorer.exe", 1368),
        ProcessMemory("csrss.exe", 452),
        ProcessMemory("loadwc.exe", 424),
        ProcessMemory("nddeagnt.exe", 300),
        ProcessMemory("winlogin.exe", 700),
    ),
)

TSE_SESSION_LIGHT = SessionProfile(
    "nt_tse",
    "light",
    (
        ProcessMemory("command.com", 224),
        ProcessMemory("csrss.exe", 452),
        ProcessMemory("loadwc.exe", 424),
        ProcessMemory("nddeagnt.exe", 300),
        ProcessMemory("winlogin.exe", 700),
    ),
)

_PROFILES: Dict[Tuple[str, str], SessionProfile] = {
    ("linux", "typical"): LINUX_SESSION,
    ("nt_tse", "typical"): TSE_SESSION_TYPICAL,
    ("nt_tse", "light"): TSE_SESSION_LIGHT,
}


def session_profile(os_name: str, variant: str = "typical") -> SessionProfile:
    """The minimal-login process set for *os_name* (and TSE *variant*)."""
    try:
        return _PROFILES[(os_name, variant)]
    except KeyError:
        raise MemoryError_(
            f"no session profile for os={os_name!r} variant={variant!r}"
        ) from None


def idle_memory_bytes(os_name: str) -> int:
    """OS base memory usage with no user sessions."""
    try:
        return IDLE_MEMORY_BYTES[os_name]
    except KeyError:
        raise MemoryError_(f"no idle memory figure for os={os_name!r}") from None


def sessions_that_fit(
    os_name: str,
    physical_bytes: int,
    *,
    variant: str = "typical",
    per_user_dynamic_bytes: int = 0,
) -> int:
    """How many logins fit in *physical_bytes* before paging must begin.

    Counts the OS base usage once, then divides the remainder by the
    per-session compulsory load plus any assumed per-user dynamic working
    set.  This is the memory dimension of capacity planning (§5.1).
    """
    base = idle_memory_bytes(os_name)
    if physical_bytes <= base:
        return 0
    per_user = session_profile(os_name, variant).total_bytes + per_user_dynamic_bytes
    if per_user <= 0:
        raise MemoryError_("per-user memory must be positive")
    return (physical_bytes - base) // per_user
