"""Unit tests for the virtual-memory manager."""

import gc
import random
import weakref

import pytest

from repro.errors import MemoryError_
from repro.memory import (
    FramePool,
    LRUPolicy,
    PagingDisk,
    VirtualMemory,
    make_policy,
)
from repro.units import kb, mb


def make_vm(pool_kb=64, **kwargs):
    pool = FramePool(kb(pool_kb))
    disk = PagingDisk(random.Random(0))
    vm = VirtualMemory(pool, disk, make_policy("lru"), **kwargs)
    return vm, pool, disk


def test_create_process_rounds_up_pages():
    vm, pool, __ = make_vm()
    space = vm.create_process("p", 4097)
    assert space.num_pages == 2


def test_first_touch_faults_then_hits():
    vm, __, __ = make_vm()
    p = vm.create_process("p", kb(16))
    r1 = vm.touch(p, 0)
    assert r1.faulted and r1.pages_read == 1
    assert r1.latency_ms > 1.0  # disk service
    r2 = vm.touch(p, 0)
    assert not r2.faulted
    assert r2.latency_ms < 0.01  # memory hierarchy hit
    assert p.faults == 1 and p.hits == 1


def test_eviction_when_pool_exhausted():
    vm, pool, __ = make_vm(pool_kb=16)  # 4 frames
    p = vm.create_process("p", kb(32))  # 8 pages
    for vpn in range(8):
        vm.touch(p, vpn)
    assert p.resident_pages == 4
    assert vm.total_evictions == 4
    # LRU: oldest pages 0-3 went out; 4-7 are resident.
    assert p.resident_vpns() == [4, 5, 6, 7]


def test_lru_victims_come_from_coldest_process():
    vm, __, __ = make_vm(pool_kb=16)
    cold = vm.create_process("cold", kb(8))
    vm.touch_sequential(cold, 0, 2)
    hot = vm.create_process("hot", kb(16))
    vm.touch_sequential(hot, 0, 4)  # evicts both cold pages
    assert cold.resident_pages == 0
    assert hot.resident_pages == 4


def test_out_of_memory_with_nothing_evictable():
    vm, pool, __ = make_vm(pool_kb=8)  # 2 frames
    pool.pin(kb(8))
    p = vm.create_process("p", kb(4))
    with pytest.raises(MemoryError_):
        vm.touch(p, 0)


def test_read_cluster_prefetches_following_pages():
    vm, __, __ = make_vm(read_cluster=4)
    p = vm.create_process("p", kb(64))
    r = vm.touch(p, 0)
    assert r.pages_read == 4
    assert p.resident_vpns() == [0, 1, 2, 3]
    # The prefetched pages now hit.
    assert not vm.touch(p, 1).faulted


def test_read_cluster_stops_at_resident_page():
    vm, __, __ = make_vm(read_cluster=4)
    p = vm.create_process("p", kb(64))
    vm.touch(p, 2)  # makes 2..5 resident
    r = vm.touch(p, 0)  # cluster 0,1 then stops at resident 2
    assert r.pages_read == 2


def test_read_cluster_stops_at_space_end():
    vm, __, __ = make_vm(read_cluster=4)
    p = vm.create_process("p", kb(8))  # 2 pages
    r = vm.touch(p, 1)
    assert r.pages_read == 1


def test_dirty_eviction_counts_writeback():
    vm, __, disk = make_vm(pool_kb=16)
    p = vm.create_process("p", kb(32))
    vm.touch_sequential(p, 0, 4, write=True)
    vm.touch_sequential(p, 4, 4)
    assert vm.total_writebacks == 4
    assert disk.writes == 4


def test_synchronous_writeback_adds_latency():
    vm_async, __, __ = make_vm(pool_kb=16)
    vm_sync, __, __ = make_vm(pool_kb=16, synchronous_writeback=True)
    for vm in (vm_async, vm_sync):
        p = vm.create_process("p", kb(32))
        vm.touch_sequential(p, 0, 4, write=True)
    r_async = vm_async.touch(vm_async.spaces[0], 5)
    r_sync = vm_sync.touch(vm_sync.spaces[0], 5)
    assert r_sync.latency_ms > r_async.latency_ms


def test_touch_sequential_wraps_around_space():
    vm, __, __ = make_vm()
    p = vm.create_process("p", kb(8))  # 2 pages
    vm.touch_sequential(p, 0, 5)
    assert p.resident_pages == 2
    assert p.faults == 2
    assert p.hits == 3


def test_destroy_process_frees_frames():
    vm, pool, __ = make_vm()
    p = vm.create_process("p", kb(16))
    vm.touch_sequential(p, 0, 4)
    used = pool.used_frames
    vm.destroy_process(p)
    assert pool.used_frames == used - 4
    assert p not in vm.spaces


def test_bad_cluster_rejected():
    pool = FramePool(kb(64))
    disk = PagingDisk(random.Random(0))
    with pytest.raises(MemoryError_):
        VirtualMemory(pool, disk, LRUPolicy(), read_cluster=0)


def test_streaming_hog_evicts_idle_interactive_process():
    """The §5.2 pathology at the VM level."""
    vm, pool, __ = make_vm(pool_kb=128)  # 32 frames
    editor = vm.create_process("editor", kb(32), interactive=True)
    vm.touch_sequential(editor, 0, 8)
    hog = vm.create_process("hog", kb(200))
    vm.touch_sequential(hog, 0, 50)
    assert editor.resident_pages == 0  # fully paged out
    # The next keystroke pays disk latency for every page it needs.
    r = vm.touch(editor, 0)
    assert r.faulted


def test_evicting_fault_reuses_victim_frame_in_place():
    vm, pool, __ = make_vm(pool_kb=16)  # 4 frames
    p = vm.create_process("p", kb(32))
    vm.touch_sequential(p, 0, 4, write=True)
    victim = p.lookup(0)  # the LRU page

    def no_free_list(*args):
        raise AssertionError("an evicting fault used the free list")

    pool.allocate = pool.release = pool.allocate_run = no_free_list
    r = vm.touch(p, 4)
    assert r.faulted and r.evicted == 1
    assert p.lookup(4) == victim and p.lookup(0) is None
    view = pool.frame(victim)
    assert (view.owner, view.vpn, view.dirty) == (p, 4, False)
    assert pool.free_frames == 0 and pool.used_frames == 4


def test_dropped_vm_is_freed_without_the_collector():
    """Frames refer to tables by index only: no reference cycle."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for policy in ("lru", "clock", "fifo"):
            pool = FramePool(kb(32))  # 8 frames
            vm = VirtualMemory(pool, PagingDisk(random.Random(0)), make_policy(policy))
            space = vm.create_process("p", kb(64))  # 16 pages
            vm.touch_sequential(space, 0, 12, write=True)  # in, then out
            vm.touch(space, 3)
            other = vm.create_process("q", kb(8))
            vm.touch_sequential(other, 0, 2)
            vm.destroy_process(other)
            ref = weakref.ref(space)
            del vm, pool, space, other
            assert ref() is None, policy
    finally:
        if was_enabled:
            gc.enable()
