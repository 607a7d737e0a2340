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

from array import array
from typing import List, Optional

from ..errors import MemoryError_
from ..obs import current_observation
from .disk import PagingDisk
from .pagetable import AddressSpace
from .physical import FramePool
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
        for vpn in space.resident_vpns():
            frame = space.unmap(vpn)
            self.policy.remove(frame)
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
                self.pool.dirty[frame] = 1
            space.hits += 1
            self.total_hits += 1
            if self._obs is not None:
                self._count_hits(1)
            return AccessResult(self.HIT_LATENCY_MS, False, 0, 0)
        evictions = self.total_evictions
        pages_read = self.disk.pages_read
        latency = self._touch_run(space, vpn, 1, write)
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

        Totals (``space.hits``, ``total_hits``, the ``mem.hits`` counter)
        and the summed latency end identical to *npages* individual
        :meth:`touch` calls.
        """
        return self._touch_run(space, start_vpn, npages, write)

    def _count_hits(self, n: int) -> None:
        counter = self._hits_counter
        if counter is None:
            counter = self._hits_counter = self._obs.metrics.counter("mem.hits")
        counter.value += n

    # -- internals --------------------------------------------------------------

    def _touch_run(
        self, space: AddressSpace, start_vpn: int, npages: int, write: bool
    ) -> float:
        """The access loop behind :meth:`touch` and :meth:`touch_sequential`.

        Runs of hits are accounted inline: no per-page
        :class:`AccessResult`, one counter update per call.  A maximal
        run of consecutive misses that fits in free frames is faulted as
        one batch by :meth:`_fault_free_run`; any other miss (it needs an
        eviction, a read cluster, or a throttling decision) goes to
        :meth:`_page_in`.  Both end in the state of one :meth:`_page_in`
        per missing page.
        """
        total = 0.0
        hit_run = 0
        hit_latency = self.HIT_LATENCY_MS
        # ``vpn % num_pages`` is always in range, so read the page table
        # directly instead of paying AddressSpace.lookup's range check.
        table = space._table
        access = self.policy.access
        dirty = self.pool.dirty
        num_pages = space.num_pages
        vpn = start_vpn
        stop = start_vpn + npages
        while vpn < stop:
            v = vpn % num_pages
            frame = table[v]
            if frame >= 0:
                access(frame)
                if write:
                    dirty[frame] = 1
                hit_run += 1
                total += hit_latency
                vpn += 1
                continue
            limit = self._free_fault_limit(space)
            if limit == 0:
                total += self._page_in(space, v, write)
                vpn += 1
                continue
            # The run stops at the first resident page, at the end of the
            # request, where the address space wraps, or at the limit.
            run_stop = min(v + limit, v + stop - vpn, num_pages)
            end = v + 1
            while end < run_stop and table[end] < 0:
                end += 1
            total = self._fault_free_run(space, v, end - v, write, total)
            vpn += end - v
        if hit_run:
            space.hits += hit_run
            self.total_hits += hit_run
            if self._obs is not None:
                self._count_hits(hit_run)
        return total

    def _free_fault_limit(self, space: AddressSpace) -> int:
        """How many faults by *space* may take free frames as one batch.

        Zero sends the next fault down :meth:`_page_in`: a read cluster
        is sized per fault, and no free frame means an eviction.
        """
        if self.read_cluster > 1:
            return 0
        return self.pool.free_frames

    def _fault_free_run(
        self, space: AddressSpace, vpn: int, count: int, write: bool, total: float
    ) -> float:
        """Fault the *count* missing pages from *vpn* into free frames.

        The batch form of *count* :meth:`_page_in` calls with one-page
        clusters and no eviction: the same frames in the same order, the
        same policy order, the same disk draws, and each page's latency
        added to *total* (returned) and observed one at a time.  A
        latency is ``0.0 + service``, which is ``service`` itself: a
        service time is never ``-0.0``.
        """
        space.faults += count
        self.total_faults += count
        obs = self._obs
        if obs is not None:
            counter = self._faults_counter
            if counter is None:
                counter = self._faults_counter = obs.metrics.counter("mem.faults")
            counter.value += count
        pool = self.pool
        frames = pool.allocate_run(count)
        table = space._table
        space.resident_pages += count
        if type(frames) is range:
            # Never-used frames, contiguous and clean: fill by slices.
            start, stop = frames.start, frames.stop
            pool.owner[start:stop] = [space] * count
            pool.vpn[start:stop] = array("q", range(vpn, vpn + count))
            if write:
                pool.dirty[start:stop] = b"\x01" * count
            table[vpn : vpn + count] = array("q", frames)
        else:
            owner, vpns, dirty = pool.owner, pool.vpn, pool.dirty
            for fault_vpn, frame in zip(range(vpn, vpn + count), frames):
                owner[frame] = space
                vpns[frame] = fault_vpn
                table[fault_vpn] = frame
                if write:
                    dirty[frame] = 1
        self.policy.insert_run(frames)
        services = self.disk.single_reads_ms(count)
        if obs is None:
            for service in services:
                total += service
            return total
        hist = self._fault_latency_hist
        if hist is None:
            hist = self._fault_latency_hist = obs.metrics.histogram(
                "mem.fault_latency_ms"
            )
        observe = hist.observe
        for service in services:
            total += service
            observe(service)
        return total

    def _page_in(self, space: AddressSpace, vpn: int, write: bool) -> float:
        """Fault non-resident *vpn* (plus its read cluster) in; the latency.

        The page-by-page fault path of :meth:`_touch_run`; subclasses
        (throttling) wrap it.  *vpn* must be in range and not resident.
        Up to ``read_cluster - 1`` following non-resident pages come in
        with it in one disk request; memory pressure may truncate the
        cluster, but never the faulting page.
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
            while end < stop and table[end] < 0:
                end += 1

        latency = 0.0
        pool = self.pool
        owner, vpns, dirty = pool.owner, pool.vpn, pool.dirty
        # Only the free frames counted here can be allocated without an
        # eviction, so no allocate call is made just to learn it fails.
        free = pool.free_frames
        for fault_vpn in range(vpn, end):
            if free:
                free -= 1
                frame = pool.allocate()
            else:
                frame = self._select_victim(space)
                if frame is None:
                    if fault_vpn == vpn:
                        raise MemoryError_(
                            "out of memory: no free frames and no evictable pages"
                        )
                    end = fault_vpn  # cluster truncated by memory pressure
                    break
                # The victim's frame is reused in place: the frame a
                # release then allocate would hand back.
                latency += self._evict(frame)
            # fault_vpn is in range and not resident, by the caller's
            # contract and the scan above.
            owner[frame] = space
            vpns[frame] = fault_vpn
            table[fault_vpn] = frame
            dirty[frame] = write and fault_vpn == vpn
            space.resident_pages += 1
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

    def _select_victim(self, requester: AddressSpace) -> Optional[int]:
        if len(self.policy) == 0:
            return None
        return self.policy.select_victim()

    def _evict(self, victim: int) -> float:
        """Unmap frame *victim* from its owner, leaving the frame in use for
        the caller to refill; returns synchronous write-back latency."""
        pool = self.pool
        latency = 0.0
        if pool.dirty[victim]:
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
        pool.owner[victim].unmap(pool.vpn[victim])
        self.total_evictions += 1
        if self._obs is not None:
            counter = self._evictions_counter
            if counter is None:
                counter = self._evictions_counter = self._obs.metrics.counter(
                    "mem.evictions"
                )
            counter.value += 1
        return latency
