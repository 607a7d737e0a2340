"""Per-layer attribution of a cProfile run.

A layer is a package directory ``src/repro/<pkg>/``.  The layer map is read
from the tree, so a new package becomes a layer without editing this file.
The top-level modules (``repro/cli.py``, ``repro/errors.py``, ...) form the
``cli`` layer.  Everything else a profile sees lands in one of three
buckets: ``numpy`` (numpy's Python files and C methods), ``builtins``
(every other C function) and ``stdlib`` (every other Python file, the
standard library and this harness's glue alike).  Each profiled function
lands in exactly one bucket, so the buckets' self times sum to the profiled
total.

cProfile records one entry per function with its caller links, which gives
two numbers per bucket: self seconds, and calls into the bucket's functions
from a function in another bucket (or from outside the profile).
"""

from __future__ import annotations

import importlib
import os
import re
import statistics
from typing import Dict, Iterable, List, Set, Tuple

#: Buckets that are not a ``repro`` package, in report order.
EXTRA_BUCKETS = ("cli", "numpy", "builtins", "stdlib")

#: Exact work counts taken from cProfile call counts:
#: metric -> (module, class, method names).  ``None`` selects every public
#: method and property of the class.  An abstract method counts the calls
#: into its concrete overrides instead.
WORK_COUNTS = {
    "sim.events": ("repro.sim.engine", "Simulator", ("schedule", "schedule_at")),
    "cpu.submits": ("repro.cpu.cpusim", "CPU", ("submit",)),
    "memory.touches": ("repro.memory.vm", "VirtualMemory", ("touch", "touch_sequential")),
    "memory.disk_reads": ("repro.memory.disk", "PagingDisk", ("read_ms",)),
    "memory.frames_built": ("repro.memory.physical", "Frame", ("__init__",)),
    "net.sends": ("repro.net.link", "Link", ("send",)),
    "scale.fluid_calls": ("repro.scale.fluid", "FluidBackground", None),
    "protocols.encodes": (
        "repro.protocols.base",
        "RemoteDisplayProtocol",
        ("encode_display_step", "encode_input_step"),
    ),
    "exec.cache_loads": ("repro.exec.cache", "ResultCache", ("load",)),
    "exec.cache_stores": ("repro.exec.cache", "ResultCache", ("store",)),
}

Key = Tuple[str, int, str]

_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)\s*$")


class LayerMap:
    """Maps a cProfile function key ``(file, line, name)`` to its bucket."""

    def __init__(self, repro_root: str) -> None:
        self.root = os.path.realpath(repro_root)
        self.packages = tuple(
            sorted(
                name
                for name in os.listdir(self.root)
                if os.path.isfile(os.path.join(self.root, name, "__init__.py"))
            )
        )
        self.buckets = self.packages + EXTRA_BUCKETS
        self._by_file: Dict[str, str] = {}

    def bucket(self, key: Key) -> str:
        filename, _line, name = key
        if filename == "~":  # a C function: cProfile labels it by name only
            return "numpy" if "numpy" in name else "builtins"
        bucket = self._by_file.get(filename)
        if bucket is None:
            bucket = self._bucket_of_file(filename)
            self._by_file[filename] = bucket
        return bucket

    def _bucket_of_file(self, filename: str) -> str:
        path = os.path.realpath(filename)
        if path.startswith(self.root + os.sep):
            head, sep, _rest = path[len(self.root) + 1:].partition(os.sep)
            return head if sep and head in self.packages else "cli"
        if f"{os.sep}numpy{os.sep}" in path:
            return "numpy"
        return "stdlib"

    def module_layer(self, module: str) -> str:
        """The layer of a dotted ``repro`` module name."""
        parts = module.split(".")
        return parts[1] if len(parts) > 1 and parts[1] in self.packages else "cli"


def attribute(stats: dict, layers: LayerMap) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and calls-in per bucket from a ``pstats.Stats.stats`` dict.

    A call into a function counts as a call into its bucket unless the
    caller is in the same bucket; calls from outside the profile (the
    harness invoking the CLI) count as calls in.
    """
    self_s = dict.fromkeys(layers.buckets, 0.0)
    calls_in = dict.fromkeys(layers.buckets, 0)
    for key, (_cc, ncalls, tottime, _cumtime, callers) in stats.items():
        bucket = layers.bucket(key)
        self_s[bucket] += tottime
        internal = sum(
            edge[0] for caller, edge in callers.items() if layers.bucket(caller) == bucket
        )
        calls_in[bucket] += ncalls - internal
    return self_s, calls_in


def _definitions(cls: type, name: str) -> Iterable:
    """The functions a call to ``cls.name`` can land in."""
    attr = vars(cls)[name]
    fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
    if not getattr(fn, "__isabstractmethod__", False):
        yield fn
        return
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        pending.extend(sub.__subclasses__())
        override = vars(sub).get(name)
        if override is not None and not getattr(override, "__isabstractmethod__", False):
            yield override


def work_count_keys() -> Dict[str, Set[Key]]:
    """Resolve :data:`WORK_COUNTS` to cProfile function keys.

    Call after every ``repro`` module is imported, so each abstract
    method's overrides are all known.
    """
    resolved = {}
    for metric, (module, cls_name, names) in WORK_COUNTS.items():
        cls = getattr(importlib.import_module(module), cls_name)
        if names is None:
            names = [
                n
                for n, v in vars(cls).items()
                if not n.startswith("_") and (callable(v) or isinstance(v, property))
            ]
        keys = set()
        for name in names:
            for fn in _definitions(cls, name):
                code = fn.__code__
                keys.add((code.co_filename, code.co_firstlineno, code.co_name))
        resolved[metric] = keys
    return resolved


def work_counts(stats: dict, keys: Dict[str, Set[Key]]) -> Dict[str, int]:
    """Calls into each work-count function set, from a pstats dict."""
    return {
        metric: sum(stats[k][1] for k in fn_keys if k in stats)
        for metric, fn_keys in keys.items()
    }


def import_seconds(samples: List[str], layers: LayerMap) -> Dict[str, float]:
    """Median per-layer self import time over ``-X importtime`` stderr dumps."""
    names = layers.packages + ("cli",)
    per_sample = []
    for text in samples:
        totals = dict.fromkeys(names, 0.0)
        for line in text.splitlines():
            match = _IMPORTTIME.match(line)
            if match is None:
                continue
            module = match.group(2)
            if module == "repro" or module.startswith("repro."):
                totals[layers.module_layer(module)] += int(match.group(1)) / 1e6
        per_sample.append(totals)
    return {n: statistics.median(s[n] for s in per_sample) for n in names}
