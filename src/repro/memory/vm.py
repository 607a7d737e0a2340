"""The virtual-memory manager: faults, eviction, page-in latency.

:class:`VirtualMemory` ties together the frame pool, per-process address
spaces, a replacement policy, and the paging disk.  It is *clock-agnostic*:
``touch`` returns the latency the access cost, and callers (experiments,
the thin-client server composition) account for that time on their own
clocks.  This keeps the module usable both inside the event simulator and
in closed-form experiments.

The latency structure is the paper's (§5.2): while the active data set fits,
access latency is bounded by the memory hierarchy (modelled as a small
constant); when physical memory is exhausted, every miss pays a disk
service time, which dwarfs everything else.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import MemoryError_
from ..obs import current_observation
from .disk import PagingDisk
from .pagetable import AddressSpace
from .physical import Frame, FramePool
from .replacement import ReplacementPolicy


class AccessResult:
    """Outcome of a single page touch."""

    __slots__ = ("latency_ms", "faulted", "evicted", "pages_read")

    def __init__(
        self, latency_ms: float, faulted: bool, evicted: int, pages_read: int
    ) -> None:
        self.latency_ms = latency_ms
        self.faulted = faulted
        self.evicted = evicted  #: frames evicted to satisfy this access
        self.pages_read = pages_read  #: pages transferred from disk

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "fault" if self.faulted else "hit"
        return f"<AccessResult {kind} {self.latency_ms:.3f}ms>"


class VirtualMemory:
    """Global-replacement demand paging over a fixed frame pool."""

    #: Latency of a memory-hierarchy hit, in ms.  Negligible next to disk
    #: service times, but non-zero so hit paths consume simulated time.
    HIT_LATENCY_MS = 0.0002

    def __init__(
        self,
        pool: FramePool,
        disk: PagingDisk,
        policy: ReplacementPolicy,
        *,
        read_cluster: int = 1,
        synchronous_writeback: bool = False,
    ) -> None:
        if read_cluster < 1:
            raise MemoryError_("read cluster must be >= 1")
        self.pool = pool
        self.disk = disk
        self.policy = policy
        self.read_cluster = read_cluster
        self.synchronous_writeback = synchronous_writeback
        self.spaces: List[AddressSpace] = []

        # Global accounting.
        self.total_faults = 0
        self.total_hits = 0
        self.total_evictions = 0
        self.total_writebacks = 0
        self._obs = current_observation()
        # Lazily-resolved instrument handles: the hit/fault paths are the
        # hottest loops in the memory experiments and must not pay a
        # registry name lookup per access — but instruments may only be
        # registered on first actual use, so an untouched VM never emits
        # zero-valued metrics (which would change the golden snapshots).
        self._hits_counter = None
        self._faults_counter = None
        self._fault_latency_hist = None
        self._writebacks_counter = None
        self._evictions_counter = None

    # -- process management ----------------------------------------------------

    def create_process(
        self, name: str, size_bytes: int, *, interactive: bool = False
    ) -> AddressSpace:
        """Create an address space of ``ceil(size_bytes / page_size)`` pages."""
        num_pages = -(-size_bytes // self.pool.page_size)
        space = AddressSpace(name, num_pages, interactive=interactive)
        self.spaces.append(space)
        return space

    def destroy_process(self, space: AddressSpace) -> None:
        """Free every resident frame of *space*."""
        for vpn in list(space.resident_vpns()):
            frame = space.lookup(vpn)
            assert frame is not None
            self.policy.remove(frame)
            space.unmap(vpn)
            self.pool.release(frame)
        self.spaces.remove(space)

    # -- the access path -----------------------------------------------------------

    def touch(
        self, space: AddressSpace, vpn: int, *, write: bool = False
    ) -> AccessResult:
        """Access one page; fault it (and its read cluster) in if needed."""
        frame = space.lookup(vpn)
        if frame is not None:
            self.policy.access(frame)
            if write:
                frame.dirty = True
            space.hits += 1
            self.total_hits += 1
            if self._obs is not None:
                self._count_hits(1)
            return AccessResult(self.HIT_LATENCY_MS, False, 0, 0)
        evictions = self.total_evictions
        pages_read = self.disk.pages_read
        latency = self._page_in(space, vpn, write)
        return AccessResult(
            latency,
            True,
            self.total_evictions - evictions,
            self.disk.pages_read - pages_read,
        )

    def touch_sequential(
        self, space: AddressSpace, start_vpn: int, npages: int, *, write: bool = False
    ) -> float:
        """Touch ``[start_vpn, start_vpn + npages)`` in order; total latency.

        Batch-aware: runs of hits are accounted inline — no per-page
        :class:`AccessResult` allocation, one counter update per run —
        and each miss goes straight to :meth:`_page_in`.  Totals
        (``space.hits``, ``total_hits``, the ``mem.hits`` counter) and the
        summed latency end identical to *npages* individual :meth:`touch`
        calls.
        """
        total = 0.0
        hit_run = 0
        hit_latency = self.HIT_LATENCY_MS
        # ``vpn % num_pages`` is always in range, so read the page table
        # directly instead of paying AddressSpace.lookup's range check.
        table = space._table
        access = self.policy.access
        page_in = self._page_in
        num_pages = space.num_pages
        for vpn in range(start_vpn, start_vpn + npages):
            v = vpn % num_pages
            frame = table.get(v)
            if frame is not None:
                access(frame)
                if write:
                    frame.dirty = True
                hit_run += 1
                total += hit_latency
            else:
                total += page_in(space, v, write)
        if hit_run:
            space.hits += hit_run
            self.total_hits += hit_run
            if self._obs is not None:
                self._count_hits(hit_run)
        return total

    def _count_hits(self, n: int) -> None:
        counter = self._hits_counter
        if counter is None:
            counter = self._hits_counter = self._obs.metrics.counter("mem.hits")
        counter.value += n

    def resident_fraction(self, space: AddressSpace) -> float:
        """Fraction of *space*'s pages currently in physical memory."""
        return space.resident_pages / space.num_pages

    # -- internals --------------------------------------------------------------

    def _page_in(self, space: AddressSpace, vpn: int, write: bool) -> float:
        """Fault non-resident *vpn* (plus its read cluster) in; the latency.

        The one fault path: :meth:`touch` and :meth:`touch_sequential`
        both land here, and subclasses (throttling) wrap it.  *vpn* must
        be in range and not resident.  Up to ``read_cluster - 1`` following
        non-resident pages come in with it in one disk request; memory
        pressure may truncate the cluster, but never the faulting page.
        """
        space.faults += 1
        self.total_faults += 1
        obs = self._obs
        if obs is not None:
            counter = self._faults_counter
            if counter is None:
                counter = self._faults_counter = obs.metrics.counter("mem.faults")
            counter.value += 1
        # The cluster is fixed before any eviction, as the pages after vpn
        # stand now: an eviction below must not lengthen it.
        table = space._table
        end = vpn + 1
        if self.read_cluster > 1:
            stop = min(vpn + self.read_cluster, space.num_pages)
            while end < stop and end not in table:
                end += 1

        latency = 0.0
        for fault_vpn in range(vpn, end):
            frame = self.pool.allocate()
            if frame is None:
                victim = self._select_victim(space)
                if victim is None:
                    if fault_vpn == vpn:
                        raise MemoryError_(
                            "out of memory: no free frames and no evictable pages"
                        )
                    end = fault_vpn  # cluster truncated by memory pressure
                    break
                latency += self._evict(victim)
                frame = self.pool.allocate()
            # AddressSpace.map without its checks: fault_vpn is in range
            # and not resident, by the caller's contract and the scan above.
            frame.owner = space
            frame.vpn = fault_vpn
            table[fault_vpn] = frame
            if write and fault_vpn == vpn:
                frame.dirty = True
            self.policy.insert(frame)

        latency += self.disk.read_ms(end - vpn)
        if obs is not None:
            hist = self._fault_latency_hist
            if hist is None:
                hist = self._fault_latency_hist = obs.metrics.histogram(
                    "mem.fault_latency_ms"
                )
            hist.observe(latency)
        return latency

    def _select_victim(self, requester: AddressSpace) -> Optional[Frame]:
        if len(self.policy) == 0:
            return None
        return self.policy.select_victim()

    def _evict(self, victim: Frame) -> float:
        """Unmap and free *victim*; returns synchronous write-back latency."""
        owner = victim.owner
        assert isinstance(owner, AddressSpace)
        assert victim.vpn is not None
        latency = 0.0
        if victim.dirty:
            self.total_writebacks += 1
            write_ms = self.disk.write_ms(1)
            if self.synchronous_writeback:
                latency = write_ms
            if self._obs is not None:
                counter = self._writebacks_counter
                if counter is None:
                    counter = self._writebacks_counter = (
                        self._obs.metrics.counter("mem.writebacks")
                    )
                counter.value += 1
        owner.unmap(victim.vpn)
        self.pool.release(victim)
        self.total_evictions += 1
        if self._obs is not None:
            counter = self._evictions_counter
            if counter is None:
                counter = self._evictions_counter = self._obs.metrics.counter(
                    "mem.evictions"
                )
            counter.value += 1
        return latency
