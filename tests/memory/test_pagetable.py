"""Unit tests for address spaces and page tables."""

import random

import pytest

from repro.errors import MemoryError_
from repro.memory import AddressSpace, FramePool, PagingDisk, VirtualMemory, make_policy
from repro.units import kb


def faulted_space(*vpns):
    """A 10-page space in a VM with *vpns* faulted in, in that order."""
    pool = FramePool(kb(64))
    vm = VirtualMemory(pool, PagingDisk(random.Random(0)), make_policy("lru"))
    space = vm.create_process("p", kb(40))
    for vpn in vpns:
        vm.touch(space, vpn)
    return space, pool


def test_empty_space():
    space = AddressSpace("p", 10)
    assert space.resident_pages == 0
    assert space.lookup(0) is None


def test_zero_pages_rejected():
    with pytest.raises(MemoryError_):
        AddressSpace("p", 0)


def test_table_is_packed_8_byte_column():
    space = AddressSpace("p", 10)
    assert space._table.itemsize == 8
    assert list(space._table) == [-1] * 10


def test_lookup_finds_faulted_frame():
    space, pool = faulted_space(3)
    frame = space.lookup(3)
    assert frame == 0
    view = pool.frame(frame)
    assert view.owner is space
    assert view.vpn == 3
    assert space.resident_pages == 1


def test_lookup_out_of_range_rejected():
    space = AddressSpace("p", 10)
    with pytest.raises(MemoryError_):
        space.lookup(10)
    with pytest.raises(MemoryError_):
        space.lookup(-1)


def test_unmap_returns_frame_and_counts_eviction():
    space, __ = faulted_space(2)
    frame = space.lookup(2)
    out = space.unmap(2)
    assert out == frame
    assert space.evicted_pages == 1
    assert space.lookup(2) is None
    assert space.resident_pages == 0


def test_unmap_nonresident_rejected():
    space = AddressSpace("p", 10)
    with pytest.raises(MemoryError_):
        space.unmap(0)


def test_resident_vpns_sorted():
    space, __ = faulted_space(5, 1, 7)
    assert space.resident_vpns() == [1, 5, 7]
    assert space.resident_pages == 3


def test_interactive_flag():
    assert AddressSpace("e", 1, interactive=True).interactive
    assert not AddressSpace("h", 1).interactive
