"""Ablation: loop-aware bitmap cache eviction (§6.1.3).

"While LRU may be the appropriate eviction scheme for typical usage, it is
exactly the wrong scheme for handling looping animations.  A more
intelligent scheme capable of dealing with such animations might somehow
detect loop patterns and adjust its eviction behavior accordingly."

We implement that scheme (:class:`repro.protocols.LoopAwareBitmapCache`)
and re-run the Figure 7 sweep with it: the cliff disappears and load above
the capacity point grows gracefully instead of jumping two orders.
"""

from conftest import emit

from repro.core import format_table
from repro.workloads import run_frame_count_sweep

FRAME_COUNTS = [60, 66, 70, 85, 100]
DURATION_MS = 60_000.0


def reproduce_loop_cache_ablation():
    lru = dict(run_frame_count_sweep(FRAME_COUNTS, duration_ms=DURATION_MS))
    aware = dict(
        run_frame_count_sweep(
            FRAME_COUNTS, duration_ms=DURATION_MS, loop_aware_cache=True
        )
    )
    return lru, aware


def test_abl_loop_cache():
    lru, aware = reproduce_loop_cache_ablation()

    emit(
        format_table(
            ["frames", "LRU Mbps", "loop-aware Mbps"],
            [
                (n, f"{lru[n]:.3f}", f"{aware[n]:.3f}")
                for n in FRAME_COUNTS
            ],
            title="Ablation: LRU vs loop-aware bitmap cache eviction",
        )
    )

    # Below capacity both are cheap.
    assert lru[60] < 0.02 and aware[60] < 0.02
    # Above capacity LRU thrashes; loop-aware keeps a stable hot subset.
    for n in (66, 70, 85):
        assert aware[n] < lru[n] / 2, n
    # Loop-aware load grows with the uncacheable remainder, gracefully.
    assert aware[66] < aware[100]
