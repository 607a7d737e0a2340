"""The paging disk latency model.

A late-1990s IDE/SCSI disk: a seek, half a rotation on average, then media
transfer.  Page-ins of consecutive pages in one request pay the positioning
cost once (read clustering).  Service times are sampled from named RNG
streams so runs are deterministic per seed.

Defaults produce ~13 ms per single-page read — a 7200 RPM-class disk — which
the memory-latency experiment's calibration (§5.2 table) builds on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import MemoryError_


@dataclass(frozen=True)
class DiskParameters:
    """Mechanical characteristics of the paging device."""

    seek_lo_ms: float = 4.0  #: minimum seek
    seek_hi_ms: float = 12.0  #: maximum (full-stroke-ish) seek
    rotation_ms: float = 8.33  #: full revolution (7200 RPM)
    transfer_ms_per_page: float = 0.85  #: 4 KB at ~5 MB/s media rate

    def mean_service_ms(self, pages: int = 1) -> float:
        """Expected service time for one request of *pages* pages."""
        seek = (self.seek_lo_ms + self.seek_hi_ms) / 2.0
        rotation = self.rotation_ms / 2.0
        return seek + rotation + self.transfer_ms_per_page * pages


class PagingDisk:
    """Samples service times for page-in / page-out requests."""

    def __init__(
        self,
        rng: random.Random,
        params: DiskParameters = DiskParameters(),
    ) -> None:
        self.rng = rng
        self.params = params
        self.reads = 0
        self.writes = 0
        self.pages_read = 0
        self.pages_written = 0
        self.busy_ms = 0.0

    def _positioning_ms(self) -> float:
        # ``random.uniform(lo, hi)`` inlined: it computes
        # ``lo + (hi - lo) * random()`` (lo = 0.0 for the rotation), so the
        # draws, their order and the floats are those of two uniform calls.
        params = self.params
        draw = self.rng.random
        seek = params.seek_lo_ms + (params.seek_hi_ms - params.seek_lo_ms) * draw()
        rotation = params.rotation_ms * draw()
        return seek + rotation

    def read_ms(self, pages: int = 1) -> float:
        """Service time for one page-in request of *pages* contiguous pages."""
        if pages <= 0:
            raise MemoryError_("read of zero pages")
        service = self._positioning_ms() + self.params.transfer_ms_per_page * pages
        self.reads += 1
        self.pages_read += pages
        self.busy_ms += service
        return service

    def write_ms(self, pages: int = 1) -> float:
        """Service time for one page-out request (dirty write-back)."""
        if pages <= 0:
            raise MemoryError_("write of zero pages")
        service = self._positioning_ms() + self.params.transfer_ms_per_page * pages
        self.writes += 1
        self.pages_written += pages
        self.busy_ms += service
        return service
