"""Property-based tests: the VM against a reference LRU paging model.

A dict-based reference model replays the same touch sequence and the two
must agree exactly on: which pages are resident, per-space fault counts,
and the eviction total.  Also checks global conservation invariants under
arbitrary interleavings of touches across processes, and that
``touch_sequential``, one ``touch`` per page and a frozen copy of the
page-by-page fault path all end identical.
"""

import contextlib
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.memory import (
    AccessResult,
    FramePool,
    PagingDisk,
    ThrottledVirtualMemory,
    VirtualMemory,
    make_policy,
)
from repro.obs import observe
from repro.units import kb

POOL_FRAMES = 6
SPACE_PAGES = 10


class ReferenceLRU:
    """Trivially correct global-LRU demand paging."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.resident = OrderedDict()  # (space, vpn) -> None
        self.faults = 0
        self.evictions = 0

    def touch(self, space, vpn):
        key = (space, vpn)
        if key in self.resident:
            self.resident.move_to_end(key)
            return False
        self.faults += 1
        if len(self.resident) >= self.capacity:
            self.resident.popitem(last=False)
            self.evictions += 1
        self.resident[key] = None
        return True


touch_sequences = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # which process
        st.integers(min_value=0, max_value=SPACE_PAGES - 1),  # vpn
    ),
    max_size=120,
)


@settings(max_examples=60)
@given(touch_sequences)
def test_vm_matches_reference_lru(touches):
    pool = FramePool(POOL_FRAMES * 4096)
    vm = VirtualMemory(pool, PagingDisk(random.Random(0)), make_policy("lru"))
    spaces = [
        vm.create_process(f"p{i}", SPACE_PAGES * 4096) for i in range(3)
    ]
    reference = ReferenceLRU(POOL_FRAMES)

    for which, vpn in touches:
        result = vm.touch(spaces[which], vpn)
        expected_fault = reference.touch(which, vpn)
        assert result.faulted == expected_fault

    # Final residency agrees exactly.
    for i, space in enumerate(spaces):
        expected = sorted(v for s, v in reference.resident if s == i)
        assert space.resident_vpns() == expected
    assert vm.total_faults == reference.faults
    assert vm.total_evictions == reference.evictions


@settings(max_examples=60)
@given(touch_sequences)
def test_vm_conservation_invariants(touches):
    pool = FramePool(POOL_FRAMES * 4096)
    vm = VirtualMemory(pool, PagingDisk(random.Random(0)), make_policy("lru"))
    spaces = [
        vm.create_process(f"p{i}", SPACE_PAGES * 4096) for i in range(3)
    ]
    for which, vpn in touches:
        vm.touch(spaces[which], vpn)
        # Frames are conserved.
        resident = sum(s.resident_pages for s in spaces)
        assert resident == pool.used_frames
        assert resident <= POOL_FRAMES
        # Accounting identities.
        assert vm.total_hits + vm.total_faults == sum(
            s.hits + s.faults for s in spaces
        )
        assert vm.total_faults - vm.total_evictions == pool.used_frames


@settings(max_examples=40)
@given(touch_sequences, st.sampled_from(["lru", "clock", "fifo"]))
def test_all_policies_bound_residency(touches, policy):
    pool = FramePool(POOL_FRAMES * 4096)
    vm = VirtualMemory(pool, PagingDisk(random.Random(0)), make_policy(policy))
    spaces = [
        vm.create_process(f"p{i}", SPACE_PAGES * 4096) for i in range(3)
    ]
    for which, vpn in touches:
        vm.touch(spaces[which], vpn)
        assert pool.used_frames <= POOL_FRAMES
    # Every touched page is either resident or was evicted.
    for space in spaces:
        assert space.resident_pages <= POOL_FRAMES


@settings(max_examples=40)
@given(touch_sequences)
def test_hit_latency_always_below_fault_latency(touches):
    pool = FramePool(POOL_FRAMES * 4096)
    vm = VirtualMemory(pool, PagingDisk(random.Random(0)), make_policy("lru"))
    space = vm.create_process("p", SPACE_PAGES * 4096)
    for __, vpn in touches:
        result = vm.touch(space, vpn)
        if result.faulted:
            assert result.latency_ms > 1.0  # disk service dominates
        else:
            assert result.latency_ms < 0.01  # memory hierarchy hit


class _ReferenceFaultPath:
    """The page-by-page fault path as it stood before run batching.

    A frozen copy of ``touch``, ``touch_sequential`` and ``_page_in``
    (and the disk's read formula) that faults every missing page on its
    own, and refills an evicted victim's frame in place.  The batched VM
    must end in exactly its state, so a regression that ``touch`` and
    ``touch_sequential`` share still shows.
    """

    def touch(self, space, vpn, *, write=False):
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
        latency = self._page_in(space, vpn, write)
        return AccessResult(
            latency,
            True,
            self.total_evictions - evictions,
            self.disk.pages_read - pages_read,
        )

    def touch_sequential(self, space, start_vpn, npages, *, write=False):
        total = 0.0
        hit_run = 0
        table = space._table
        for vpn in range(start_vpn, start_vpn + npages):
            v = vpn % space.num_pages
            frame = table[v]
            if frame >= 0:
                self.policy.access(frame)
                if write:
                    self.pool.dirty[frame] = 1
                hit_run += 1
                total += self.HIT_LATENCY_MS
            else:
                total += self._page_in(space, v, write)
        if hit_run:
            space.hits += hit_run
            self.total_hits += hit_run
            if self._obs is not None:
                self._count_hits(hit_run)
        return total

    def _page_in(self, space, vpn, write):
        space.faults += 1
        self.total_faults += 1
        obs = self._obs
        if obs is not None:
            obs.metrics.counter("mem.faults").value += 1
        table = space._table
        end = vpn + 1
        if self.read_cluster > 1:
            stop = min(vpn + self.read_cluster, space.num_pages)
            while end < stop and table[end] < 0:
                end += 1
        latency = 0.0
        pool = self.pool
        for fault_vpn in range(vpn, end):
            frame = pool.allocate()
            if frame is None:
                frame = self._select_victim(space)
                if frame is None:
                    if fault_vpn == vpn:
                        raise MemoryError_("out of memory")
                    end = fault_vpn
                    break
                latency += self._evict(frame)
            pool.owner[frame] = space
            pool.vpn[frame] = fault_vpn
            pool.dirty[frame] = write and fault_vpn == vpn
            table[fault_vpn] = frame
            space.resident_pages += 1
            self.policy.insert(frame)
        latency += reference_read_ms(self.disk, end - vpn)
        if obs is not None:
            obs.metrics.histogram("mem.fault_latency_ms").observe(latency)
        return latency


def reference_read_ms(disk, pages):
    """``PagingDisk.read_ms`` as two ``random.uniform`` draws, seek first."""
    params = disk.params
    seek = disk.rng.uniform(params.seek_lo_ms, params.seek_hi_ms)
    rotation = disk.rng.uniform(0.0, params.rotation_ms)
    service = seek + rotation + params.transfer_ms_per_page * pages
    disk.reads += 1
    disk.pages_read += pages
    disk.busy_ms += service
    return service


class ReferenceVM(_ReferenceFaultPath, VirtualMemory):
    pass


class ReferenceThrottledVM(_ReferenceFaultPath, ThrottledVirtualMemory):
    def _page_in(self, space, vpn, write):
        pressured = self.under_pressure
        latency = _ReferenceFaultPath._page_in(self, space, vpn, write)
        if pressured and not space.interactive:
            self.throttled_faults += 1
            latency += self.throttle_ms
        return latency


#: Throttling threshold of the throttled twins: high enough that a
#: 16-frame pool crosses it partway through a run of misses.
PRESSURE = 0.25


class Twin:
    """A VM over three spaces (p0 interactive) that logs its victims."""

    def __init__(self, policy, read_cluster, frames, throttled, reference=False):
        if throttled:
            cls = ReferenceThrottledVM if reference else ThrottledVirtualMemory
            kwargs = {"pressure_threshold": PRESSURE}
        else:
            cls = ReferenceVM if reference else VirtualMemory
            kwargs = {}
        self.vm = cls(
            FramePool(frames * 4096),
            PagingDisk(random.Random(7)),
            make_policy(policy),
            read_cluster=read_cluster,
            **kwargs,
        )
        self.spaces = [
            self.vm.create_process(
                f"p{i}", SPACE_PAGES * 4096, interactive=(i == 0)
            )
            for i in range(3)
        ]
        self.victims = []
        evict = self.vm._evict
        pool = self.vm.pool

        def logging_evict(victim):
            self.victims.append((pool.owner[victim].name, pool.vpn[victim], victim))
            return evict(victim)

        self.vm._evict = logging_evict

    def state(self):
        vm = self.vm
        disk = vm.disk
        return {
            "rng": disk.rng.getstate(),
            "disk": (
                disk.busy_ms,
                disk.reads,
                disk.pages_read,
                disk.writes,
                disk.pages_written,
            ),
            "totals": (
                vm.total_hits,
                vm.total_faults,
                vm.total_evictions,
                vm.total_writebacks,
                getattr(vm, "throttled_faults", None),
                getattr(vm, "protected_skips", None),
            ),
            "spaces": [
                (
                    s.hits,
                    s.faults,
                    s.evicted_pages,
                    s.resident_pages,
                    s.resident_vpns(),
                )
                for s in self.spaces
            ],
            "frames": [
                (s.lookup(v), vm.pool.dirty[s.lookup(v)])
                for s in self.spaces
                for v in s.resident_vpns()
            ],
            "victims": self.victims,
        }


def run_sequential(twin, batches):
    return [
        twin.vm.touch_sequential(twin.spaces[i], start, n, write=write)
        for i, start, n, write in batches
    ]


def run_per_page(twin, batches):
    totals = []
    for i, start, n, write in batches:
        space = twin.spaces[i]
        total = 0.0
        for vpn in range(start, start + n):
            total += twin.vm.touch(
                space, vpn % space.num_pages, write=write
            ).latency_ms
        totals.append(total)
    return totals


def run_twin(batches, run, observed, *args, **kwargs):
    """Build a twin, drive it with *run*; its totals, state and metrics."""
    with observe() if observed else contextlib.nullcontext() as obs:
        twin = Twin(*args, **kwargs)
        totals = run(twin, batches)
    snapshot = obs.metrics.snapshot() if observed else None
    return twin, (totals, twin.state(), snapshot)


def assert_twins_agree(
    batches, policy, read_cluster, frames, throttled, observed=True
):
    """``touch_sequential`` and per-page ``touch``, batched and in the
    frozen page-by-page reference, all end identical: exact latencies
    (same additions, same order), VM and disk state, and metrics."""
    config = (policy, read_cluster, frames, throttled)
    seq, seq_result = run_twin(batches, run_sequential, observed, *config)
    __, one_result = run_twin(batches, run_per_page, observed, *config)
    for run in (run_sequential, run_per_page):
        __, ref_result = run_twin(batches, run, observed, *config, reference=True)
        assert seq_result == ref_result
        assert one_result == ref_result
    return seq


batches = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # which process
        st.integers(min_value=0, max_value=3 * SPACE_PAGES),  # start vpn
        st.integers(min_value=0, max_value=2 * SPACE_PAGES),  # pages
        st.booleans(),  # write
    ),
    max_size=12,
)


@settings(max_examples=80)
@given(
    batches,
    st.sampled_from(["lru", "clock", "fifo"]),
    st.sampled_from([1, 4]),
    # 4 frames: constant eviction; 16: runs cross from free frames into
    # eviction (and, throttled, into pressure); 40: every page fits.
    st.sampled_from([4, 16, 40]),
    st.booleans(),
    st.booleans(),
)
def test_touch_sequential_matches_per_page_touch(
    batches, policy, read_cluster, frames, throttled, observed
):
    assert_twins_agree(batches, policy, read_cluster, frames, throttled, observed)


@pytest.mark.parametrize("policy", ["lru", "clock", "fifo"])
@pytest.mark.parametrize("throttled", [False, True])
def test_run_crossing_into_eviction_matches_reference(policy, throttled):
    # p1 fills 10 of 16 free frames; p2's 20-page run takes the last six
    # free frames as a batch (fewer when throttled), then evicts.
    program = [(1, 0, SPACE_PAGES, True), (2, 0, 2 * SPACE_PAGES, False)]
    seq = assert_twins_agree(program, policy, 1, 16, throttled)
    assert seq.vm.total_evictions > 0
    assert seq.vm.total_writebacks > 0


@pytest.mark.parametrize("read_cluster", [1, 4])
def test_throttled_streamer_under_pressure_matches_per_page_touch(read_cluster):
    # The interactive p0 fills most of the pool, then the non-interactive
    # p1 streams through it with writes: once the pool is full, every p1
    # fault is throttled and evicts one of p1's own dirty pages.
    program = [(0, 0, SPACE_PAGES, False), (1, 0, 3 * SPACE_PAGES, True)]
    seq = assert_twins_agree(program, "lru", read_cluster, 12, True)
    assert seq.vm.throttled_faults > 0
    assert seq.vm.total_writebacks > 0
