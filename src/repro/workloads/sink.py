"""``sink``: the paper's greedy CPU consumer (§4.2.2).

"We wrote a simple C program called sink that is a greedy consumer of CPU
cycles.  Since sink never voluntarily yields the processor, each running
instance should increase the scheduler queue length by one.  We used this
program to control the load level on the server."

:func:`repro.cpu.thread.sink_thread` builds one instance; this module adds
the fleet-management convenience the experiments use.
"""

from __future__ import annotations

from typing import List, Optional

from ..cpu.cpusim import CPU
from ..cpu.thread import Thread, sink_thread
from ..errors import WorkloadError


class SinkFleet:
    """N sink processes on one CPU, resizable mid-experiment."""

    def __init__(self, cpu: CPU, count: int = 0, **thread_kwargs) -> None:
        if count < 0:
            raise WorkloadError("sink count cannot be negative")
        self.cpu = cpu
        self.thread_kwargs = thread_kwargs
        self.sinks: List[Thread] = []
        self.grow(count)

    def __len__(self) -> int:
        return len(self.sinks)

    def grow(self, n: int) -> None:
        """Launch *n* more sinks."""
        for __ in range(n):
            sink = sink_thread(f"sink{len(self.sinks)}", **self.thread_kwargs)
            self.cpu.add_thread(sink)
            self.sinks.append(sink)

    def shrink(self, n: int) -> None:
        """Kill the *n* most recently launched sinks."""
        if n > len(self.sinks):
            raise WorkloadError(f"cannot kill {n} of {len(self.sinks)} sinks")
        for __ in range(n):
            self.cpu.kill(self.sinks.pop())

    def resize(self, count: int) -> None:
        """Grow or shrink to exactly *count* sinks."""
        if count < 0:
            raise WorkloadError("sink count cannot be negative")
        if count > len(self.sinks):
            self.grow(count - len(self.sinks))
        else:
            self.shrink(len(self.sinks) - count)
