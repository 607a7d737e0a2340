"""Per-process page tables and address spaces."""

from __future__ import annotations

from array import array
from typing import List, Optional

from ..errors import MemoryError_


class AddressSpace:
    """A process's virtual memory: ``num_pages`` pages, a resident subset.

    The page table maps virtual page numbers (vpn) to physical frame
    indices for the resident pages, and holds -1 for every other page
    (it lives on the paging disk).  It refers to frames only by index, so
    an address space and its frame pool hold no reference cycle.
    """

    def __init__(
        self,
        name: str,
        num_pages: int,
        *,
        interactive: bool = False,
    ) -> None:
        if num_pages <= 0:
            raise MemoryError_("address space needs at least one page")
        self.name = name
        self.num_pages = num_pages
        #: Interactive processes are the beneficiaries of Evans et al.'s
        #: throttling/working-set protection (see repro.memory.throttle).
        self.interactive = interactive
        self._table = array("q", [-1]) * num_pages
        #: How many of this space's pages are in physical memory.
        self.resident_pages = 0

        # Accounting.
        self.faults = 0
        self.hits = 0
        self.evicted_pages = 0

    def _check_vpn(self, vpn: int) -> None:
        if not 0 <= vpn < self.num_pages:
            raise MemoryError_(
                f"{self.name}: vpn {vpn} out of range [0, {self.num_pages})"
            )

    def lookup(self, vpn: int) -> Optional[int]:
        """The frame holding *vpn*, or None if not resident."""
        self._check_vpn(vpn)
        frame = self._table[vpn]
        return None if frame < 0 else frame

    def unmap(self, vpn: int) -> int:
        """Remove the translation for *vpn*, returning its frame."""
        self._check_vpn(vpn)
        frame = self._table[vpn]
        if frame < 0:
            raise MemoryError_(f"{self.name}: vpn {vpn} is not resident")
        self._table[vpn] = -1
        self.resident_pages -= 1
        self.evicted_pages += 1
        return frame

    def resident_vpns(self) -> List[int]:
        """Sorted virtual page numbers currently resident."""
        return [vpn for vpn, frame in enumerate(self._table) if frame >= 0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AddressSpace {self.name!r} {self.resident_pages}"
            f"/{self.num_pages} resident>"
        )
