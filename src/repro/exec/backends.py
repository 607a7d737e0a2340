"""Execution backends: how a batch of sweep points actually runs.

A backend maps one picklable-or-not function over index-tagged parameter
values and yields ``(index, seconds, result)`` triples in whatever order
points *finish*.  Ordering is the executor's job — it merges by index — so
backends are free to complete points out of order.

Two backends ship:

``serial``
    Runs points in the calling process, in order.  Always available, and
    the semantic baseline every other backend must match bit-for-bit.

``process``
    Fans chunks of points out to a :class:`concurrent.futures.\
ProcessPoolExecutor`.  Requires the point function and every value/result
    to be picklable; :func:`probe_process_backend` reports (rather than
    raises) when that, or process creation itself, is impossible so the
    executor can fall back to serial.
"""

from __future__ import annotations

import gc
import pickle
import time
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ExperimentError

#: (index, value) pairs going in; (index, seconds, result) triples coming out.
TaggedValue = Tuple[int, Any]
PointOutput = Tuple[int, float, Any]


def _run_point(fn: Callable[[Any], Any], tagged: TaggedValue) -> PointOutput:
    index, value = tagged
    start = time.perf_counter()
    result = fn(value)
    seconds = time.perf_counter() - start
    # A finished point's simulator graph is cyclic (events, processes and
    # the models that schedule them refer to each other), so only the
    # collector frees it.  Collecting here, untimed, caps a sweep's
    # footprint at one point instead of however many points pile up
    # between automatic collections.
    gc.collect()
    return index, seconds, result


def _run_chunk(
    fn: Callable[[Any], Any], chunk: Sequence[TaggedValue]
) -> List[PointOutput]:
    """Worker entry point: run one chunk of points (module-level, picklable)."""
    return [_run_point(fn, tagged) for tagged in chunk]


class SerialBackend:
    """In-process, in-order execution — the reference semantics."""

    name = "serial"

    def map(
        self, fn: Callable[[Any], Any], tagged: Sequence[TaggedValue]
    ) -> Iterator[PointOutput]:
        """Yield ``(index, seconds, fn(value))`` for each point, in order."""
        for item in tagged:
            yield _run_point(fn, item)


class ProcessBackend:
    """Chunked fan-out over a :class:`ProcessPoolExecutor`."""

    name = "process"

    def __init__(self, jobs: int = 2) -> None:
        if jobs < 1:
            raise ExperimentError(f"process backend needs jobs >= 1, got {jobs}")
        self.jobs = jobs

    def _chunks(self, tagged: Sequence[TaggedValue]) -> List[List[TaggedValue]]:
        # Aim for a few chunks per worker so stragglers rebalance, but
        # never chunks so small that submission overhead dominates.
        size = max(1, len(tagged) // (self.jobs * 4))
        return [list(tagged[i : i + size]) for i in range(0, len(tagged), size)]

    def map(
        self, fn: Callable[[Any], Any], tagged: Sequence[TaggedValue]
    ) -> Iterator[PointOutput]:
        """Yield ``(index, seconds, fn(value))`` triples in completion order."""
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = [pool.submit(_run_chunk, fn, c) for c in self._chunks(tagged)]
            for future in as_completed(futures):
                for output in future.result():
                    yield output


def probe_process_backend(fn: Callable[[Any], Any]) -> Optional[str]:
    """Why the process backend can't run *fn*, or ``None`` if it can.

    Checks the two preconditions cheaply before any fork: the point
    function must pickle (lambdas and closures don't), and the platform
    must support process pools at all (sandboxes sometimes deny the
    semaphores they need).
    """
    try:
        pickle.dumps(fn)
    except Exception as exc:
        return f"point function is not picklable ({type(exc).__name__})"
    try:
        import concurrent.futures  # noqa: F401
        import multiprocessing

        multiprocessing.cpu_count()
    except Exception as exc:  # pragma: no cover - platform-specific
        return f"process pools unavailable ({type(exc).__name__})"
    return None
