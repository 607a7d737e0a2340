"""Evans et al.'s memory protection for interactive processes (§5.2).

The paper demonstrates a pathology: a streaming, non-interactive job pages
an idle interactive application out to disk, so the user's next keystroke
costs seconds instead of milliseconds.  Evans et al.'s prototype SVR4 kernel
eliminated it by **throttling non-interactive processes in high-load
situations**; the paper recommends thin-client operating systems "make some
provision to reserve physical memory for interactive processes".

:class:`ThrottledVirtualMemory` implements both halves of that provision:

* **working-set protection** — when choosing a victim frame for a
  *non-interactive* process's fault, frames owned by interactive processes
  are skipped while any other candidate exists;
* **fault-rate throttling** — once free memory falls below
  ``pressure_threshold`` (as a fraction of the pool), each fault by a
  non-interactive process pays an extra ``throttle_ms`` penalty, slowing
  the stream enough that interactive pages survive.

This is the ablation substrate for ``benchmarks/test_abl_mem_throttle.py``.
"""

from __future__ import annotations

import math
from typing import List, Optional

from .pagetable import AddressSpace
from .vm import VirtualMemory


class ThrottledVirtualMemory(VirtualMemory):
    """Demand paging that shields interactive processes from streamers."""

    def __init__(
        self,
        *args,
        pressure_threshold: float = 0.05,
        throttle_ms: float = 20.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.pressure_threshold = pressure_threshold
        self.throttle_ms = throttle_ms
        self.throttled_faults = 0
        self.protected_skips = 0

    # -- working-set protection ---------------------------------------------

    def _select_victim(self, requester: AddressSpace) -> Optional[int]:
        """Prefer victims not owned by interactive processes.

        Interactive requesters keep plain policy order — the protection
        only constrains what *non-interactive* faults may steal.
        """
        if requester.interactive:
            return super()._select_victim(requester)
        owners = self.pool.owner
        skipped: List[int] = []
        victim: Optional[int] = None
        while len(self.policy) > 0:
            candidate = self.policy.select_victim()
            if owners[candidate].interactive:
                skipped.append(candidate)
                self.protected_skips += 1
            else:
                victim = candidate
                break
        # Reinsert protected frames in their original recency order.
        for frame in skipped:
            self.policy.insert(frame)
        if victim is None and skipped:
            # Nothing else left: fall back to evicting an interactive page
            # rather than failing the allocation.
            victim = self.policy.select_victim()
        return victim

    # -- fault-rate throttling -----------------------------------------------

    @property
    def under_pressure(self) -> bool:
        """True when free memory is below the throttling threshold."""
        return (
            self.pool.free_frames
            < self.pool.total_frames * self.pressure_threshold
        )

    def _free_fault_limit(self, space: AddressSpace) -> int:
        """Batch a streamer's faults only while none of them is throttled.

        Free memory falls by one frame a fault, and a fault is judged
        under pressure when the frames free before it number fewer than
        ``total_frames * pressure_threshold``, that is fewer than its
        ceiling.  Faults from there on go one by one to :meth:`_page_in`.
        """
        limit = super()._free_fault_limit(space)
        if limit and not space.interactive:
            floor = math.ceil(self.pool.total_frames * self.pressure_threshold)
            limit = min(limit, max(0, limit - floor + 1))
        return limit

    def _page_in(self, space: AddressSpace, vpn: int, write: bool) -> float:
        """The page-by-page fault path, plus the penalty for streaming faults.

        Pressure is judged before the fault takes its frames.  Batched
        faults are never under pressure (:meth:`_free_fault_limit`), so
        :meth:`touch` and :meth:`touch_sequential` are throttled alike.
        """
        pressured = self.under_pressure
        latency = super()._page_in(space, vpn, write)
        if pressured and not space.interactive:
            self.throttled_faults += 1
            latency += self.throttle_ms
        return latency
