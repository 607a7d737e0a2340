"""Property-based tests: the VM against a reference LRU paging model.

A dict-based reference model replays the same touch sequence and the two
must agree exactly on: which pages are resident, per-space fault counts,
and the eviction total.  Also checks global conservation invariants under
arbitrary interleavings of touches across processes, and that the batched
``touch_sequential`` is indistinguishable from one ``touch`` per page.
"""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import (
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


class Twin:
    """A VM over three spaces (p0 interactive) that logs its victims."""

    def __init__(self, policy, read_cluster, frames, throttled):
        cls = ThrottledVirtualMemory if throttled else VirtualMemory
        self.vm = cls(
            FramePool(frames * 4096),
            PagingDisk(random.Random(7)),
            make_policy(policy),
            read_cluster=read_cluster,
        )
        self.spaces = [
            self.vm.create_process(
                f"p{i}", SPACE_PAGES * 4096, interactive=(i == 0)
            )
            for i in range(3)
        ]
        self.victims = []
        evict = self.vm._evict

        def logging_evict(victim):
            self.victims.append((victim.owner.name, victim.vpn, victim.index))
            return evict(victim)

        self.vm._evict = logging_evict

    def state(self):
        vm = self.vm
        return {
            "rng": vm.disk.rng.getstate(),
            "busy_ms": vm.disk.busy_ms,
            "totals": (
                vm.total_hits,
                vm.total_faults,
                vm.total_evictions,
                vm.total_writebacks,
                getattr(vm, "throttled_faults", None),
            ),
            "spaces": [
                (s.hits, s.faults, s.evicted_pages, s.resident_vpns())
                for s in self.spaces
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


def assert_twins_agree(batches, policy, read_cluster, frames, throttled):
    with observe() as obs_seq:
        seq = Twin(policy, read_cluster, frames, throttled)
        seq_totals = run_sequential(seq, batches)
    with observe() as obs_one:
        one = Twin(policy, read_cluster, frames, throttled)
        one_totals = run_per_page(one, batches)
    assert seq_totals == one_totals  # exact: same additions, same order
    assert seq.state() == one.state()
    assert obs_seq.metrics.snapshot() == obs_one.metrics.snapshot()
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


@settings(max_examples=60)
@given(
    batches,
    st.sampled_from(["lru", "clock", "fifo"]),
    st.sampled_from([1, 4]),
    # 4 frames: constant eviction; 40: every page of all three fits.
    st.sampled_from([4, 40]),
    st.booleans(),
)
def test_touch_sequential_matches_per_page_touch(
    batches, policy, read_cluster, frames, throttled
):
    assert_twins_agree(batches, policy, read_cluster, frames, throttled)


@pytest.mark.parametrize("read_cluster", [1, 4])
def test_throttled_streamer_under_pressure_matches_per_page_touch(read_cluster):
    # The interactive p0 fills most of the pool, then the non-interactive
    # p1 streams through it with writes: once the pool is full, every p1
    # fault is throttled and evicts one of p1's own dirty pages.
    program = [(0, 0, SPACE_PAGES, False), (1, 0, 3 * SPACE_PAGES, True)]
    seq = assert_twins_agree(program, "lru", read_cluster, 12, True)
    assert seq.vm.throttled_faults > 0
    assert seq.vm.total_writebacks > 0
