"""Shared helpers for the figure/table benchmarks.

Every benchmark regenerates one of the paper's tables or figures, prints
the corresponding rows/series (run with ``-s`` to see them inline; pytest
captures stdout otherwise) and asserts the paper's shape on them.
Experiments are deterministic, so each runs once; the interesting output
is the reproduced data, not the wall-clock time.
"""

from __future__ import annotations


def emit(text: str) -> None:
    """Print a reproduced table/series with visual separation."""
    print()
    print(text)
