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
from typing import Iterator

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
        # The service-time formula's inputs, bound once: the parameters are
        # frozen and nothing rebinds ``rng`` or ``params``.
        self._draw = rng.random
        self._seek_lo_ms = params.seek_lo_ms
        self._seek_span_ms = params.seek_hi_ms - params.seek_lo_ms
        self._rotation_ms = params.rotation_ms
        self._transfer_ms = params.transfer_ms_per_page

    def _service_ms(self, pages: int) -> float:
        # ``random.uniform(lo, hi)`` inlined: it computes
        # ``lo + (hi - lo) * random()`` (lo = 0.0 for the rotation), so a
        # request draws seek then rotation, and the floats are those of two
        # uniform calls plus the transfer time.
        draw = self._draw
        return (
            self._seek_lo_ms
            + self._seek_span_ms * draw()
            + self._rotation_ms * draw()
            + self._transfer_ms * pages
        )

    def read_ms(self, pages: int = 1) -> float:
        """Service time for one page-in request of *pages* contiguous pages."""
        if pages <= 0:
            raise MemoryError_("read of zero pages")
        service = self._service_ms(pages)
        self.reads += 1
        self.pages_read += pages
        self.busy_ms += service
        return service

    def single_reads_ms(self, count: int) -> Iterator[float]:
        """Service times of *count* one-page requests, yielded in order.

        Each time, and the state it leaves behind (draws, ``reads``,
        ``pages_read``, ``busy_ms``), is that of one ``read_ms(1)`` call,
        so iterating to the end equals *count* such calls.  The counts
        are taken at the first step; ``busy_ms`` grows one time at a step.
        """
        self.reads += count
        self.pages_read += count
        draw = self._draw
        seek_lo = self._seek_lo_ms
        seek_span = self._seek_span_ms
        rotation = self._rotation_ms
        transfer = self._transfer_ms
        for _ in range(count):
            # _service_ms(1) inlined; ``transfer * 1`` is ``transfer``.
            service = seek_lo + seek_span * draw() + rotation * draw() + transfer
            self.busy_ms += service
            yield service

    def write_ms(self, pages: int = 1) -> float:
        """Service time for one page-out request (dirty write-back)."""
        if pages <= 0:
            raise MemoryError_("write of zero pages")
        service = self._service_ms(pages)
        self.writes += 1
        self.pages_written += pages
        self.busy_ms += service
        return service
