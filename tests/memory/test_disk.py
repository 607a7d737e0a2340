"""Unit tests for the paging-disk model."""

import random

import pytest

from repro.errors import MemoryError_
from repro.memory import DiskParameters, PagingDisk


def make_disk(seed=1, **kwargs):
    return PagingDisk(random.Random(seed), DiskParameters(**kwargs))


def test_read_time_within_mechanical_bounds():
    disk = make_disk()
    p = disk.params
    for _ in range(100):
        t = disk.read_ms(1)
        assert p.seek_lo_ms + p.transfer_ms_per_page <= t
        assert t <= p.seek_hi_ms + p.rotation_ms + p.transfer_ms_per_page


def test_mean_service_is_about_13ms():
    """Calibration: the default disk costs ~13 ms per single-page read."""
    disk = make_disk()
    times = [disk.read_ms(1) for _ in range(2000)]
    assert sum(times) / len(times) == pytest.approx(13.0, abs=0.5)
    assert disk.params.mean_service_ms(1) == pytest.approx(13.0, abs=0.5)


def test_clustered_read_amortizes_positioning():
    params = DiskParameters()
    assert params.mean_service_ms(4) < 4 * params.mean_service_ms(1)
    assert params.mean_service_ms(4) == pytest.approx(
        params.mean_service_ms(1) + 3 * params.transfer_ms_per_page
    )


def test_accounting():
    disk = make_disk()
    disk.read_ms(3)
    disk.write_ms(1)
    assert disk.reads == 1
    assert disk.writes == 1
    assert disk.pages_read == 3
    assert disk.pages_written == 1
    assert disk.busy_ms > 0


def test_zero_page_requests_rejected():
    disk = make_disk()
    with pytest.raises(MemoryError_):
        disk.read_ms(0)
    with pytest.raises(MemoryError_):
        disk.write_ms(0)


def test_deterministic_for_same_seed():
    a = [make_disk(seed=9).read_ms() for _ in range(5)]
    b = [make_disk(seed=9).read_ms() for _ in range(5)]
    assert a == b


def test_single_reads_match_one_page_reads():
    batched, single = make_disk(seed=4), make_disk(seed=4)
    assert list(batched.single_reads_ms(6)) == [single.read_ms(1) for _ in range(6)]
    for disk in (batched, single):
        assert (disk.reads, disk.pages_read) == (6, 6)
    assert batched.busy_ms == single.busy_ms
    assert batched.rng.getstate() == single.rng.getstate()
