#!/usr/bin/env python3
"""The repository benchmark: registered experiments driven through the CLI.

Run from the repository root::

    python3 perfbench/run.py --workload fleet_memory --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload hybrid_scale --seed 1 --trace 1
    python3 perfbench/run.py --workload all     # both metric sets, every workload
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-manifest

A workload is a closed loop: one client runs one registered experiment at a
time through ``repro.cli.main``, serially, in this process (no ``--jobs``).
``--trace 0`` repeats the workload for ``--seconds`` with profiling off and
reports the end-to-end metrics: ``wall_s`` from the fastest invocations,
``setup_s`` a median over fresh interpreters, both normalised to a
reference host speed by a probe timed around each sample.  ``--trace 1``
times one pass, profiles a second one with ``cProfile`` and reports the
per-layer metrics (``layers.py``).  Every pass checks its stdout, CSV and
trace artifacts against ``manifest.json``: an invocation that exits
non-zero, raises or writes different bytes is a failed operation.
``--seed`` picks one of the manifest's experiment seeds.

The lines above the last print every metric by name with its unit; the last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md documents workloads and metrics.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import pstats
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPRO_ROOT = os.path.join(SRC, "repro")
MANIFEST = os.path.join(HERE, "manifest.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Fresh interpreters timed for ``setup_s`` (after one untimed import that
#: compiles the bytecode caches), and ``-X importtime`` dumps per traced run.
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3

#: End-to-end runs time at least this many passes, however long they take.
MIN_PASSES = 3

#: Timed seconds are rescaled to a host on which :func:`probe_seconds`
#: takes this long (its median on a 2-core Xeon host at 2.0 GHz).
REFERENCE_PROBE_S = 0.05

#: Experiment seeds the manifest holds digests for; ``--seed n`` runs
#: ``MANIFEST_SEEDS[n % len(MANIFEST_SEEDS)]``.  0 is the CLI default.
MANIFEST_SEEDS = (0, 1, 2, 3)


@dataclass(frozen=True)
class Workload:
    """Registered experiments run one after another, once per pass.

    A ``replay`` pass traces the list twice into one result cache: cold,
    into the empty cache, then warm from it.
    """

    experiments: Tuple[str, ...]
    replay: bool = False
    requires: Tuple[str, ...] = ()


WORKLOADS = {
    # cpu + sim do most of the work (fig2/fig3), net on fig8; tab-proto is
    # the one place protocols/gui/workloads do real work.  memory and scale
    # stay near zero.
    "paper_sched_net": Workload(("fig1", "fig2", "fig3", "fig8", "tab-proto")),
    # memory is most of the self time, stressed two ways: tab-mem's
    # page-fault path and fleet_capacity's FramePool construction.
    "fleet_memory": Workload(("tab-mem", "fleet_capacity", "slo_fleet")),
    # scale + net do the work in the fluid tier: presampled arrays on the
    # open curve, per-tick appends on the closed curve.
    "hybrid_scale": Workload(
        ("scale_load_curve", "scale_closed_curve"), requires=("numpy",)
    ),
    # The only workload where obs records and serialises, and where exec
    # both stores and loads cache entries.
    "traced_replay": Workload(
        ("fig3", "scale_fleet", "slo_fleet"), replay=True, requires=("numpy",)
    ),
}


class BenchError(Exception):
    """A problem that stops the benchmark before it measures anything."""


# --- one pass ----------------------------------------------------------------


class _Cell:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def probe_seconds() -> float:
    """Time one fixed unit of Python work that does not use the repository.

    Object allocation, attribute updates and dict stores at random indices,
    like the simulator's inner loops.  The collector is held off so the
    probe does not depend on the heap the experiments left behind.
    """
    rng = random.Random(0)
    gc.disable()
    try:
        start = time.perf_counter()
        cells = [_Cell(i) for i in range(50_000)]
        table = {}
        for _ in range(80_000):
            cell = cells[rng.randrange(50_000)]
            cell.hits += 1
            table[cell.key & 4095] = cell
        return time.perf_counter() - start
    finally:
        gc.enable()


def normalised(seconds: float, probe_s: float) -> float:
    """*seconds* rescaled to a host on which the probe takes the reference time."""
    return seconds * REFERENCE_PROBE_S / probe_s


@dataclass
class Call:
    """One experiment invocation and what it wrote."""

    phase: str
    experiment: str
    exit_code: Optional[int]  # None: the invocation raised
    profile: Optional[cProfile.Profile]
    wall_s: float
    probe_s: float  # mean of the probes just before and just after
    digests: Dict[str, str] = field(default_factory=dict)
    trace_bytes: int = 0
    trace_lines: int = 0


@dataclass
class Pass:
    calls: List[Call]

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def normalised_s(self) -> float:
        return sum(normalised(c.wall_s, c.probe_s) for c in self.calls)


def _scan(call: Call, stdout: str, out_dir: str) -> None:
    """Digest stdout and every file under *out_dir* into *call*."""
    call.digests[f"{call.experiment}/stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    for dirpath, _dirs, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            sha, size, lines = hashlib.sha256(), 0, 0
            with open(path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    sha.update(chunk)
                    size += len(chunk)
                    lines += chunk.count(b"\n")
            call.digests[f"{call.experiment}/{rel}"] = sha.hexdigest()
            if rel.startswith("trace/"):
                call.trace_bytes += size
                call.trace_lines += lines


def run_pass(workload: Workload, seed: int, work_dir: str, profile: bool) -> Pass:
    """Run *workload* once; time it, then digest what it wrote.

    A probe runs before the first invocation and after each one, so every
    invocation is bracketed by two measurements of the host's speed.
    """
    from repro.cli import main

    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=work_dir)
    cache_dir = os.path.join(pass_dir, "cache")
    runs = []
    gc.collect()
    probe_before = probe_seconds()
    for phase in ("cold", "warm") if workload.replay else ("run",):
        for name in workload.experiments:
            out_dir = os.path.join(pass_dir, phase, name)
            argv = ["run", name, "--seed", str(seed), "--csv", os.path.join(out_dir, "csv")]
            if workload.replay:
                argv[0] = "trace"
                argv += ["--trace-dir", os.path.join(out_dir, "trace")]
                argv += ["--cache-dir", cache_dir]
            out = io.StringIO()
            prof = cProfile.Profile() if profile else None
            code: Optional[int] = None
            began = time.perf_counter()
            if prof is not None:
                prof.enable()
            try:
                code = main(argv, out=out)
            except Exception:  # a crashing experiment is a failed operation
                traceback.print_exc()
            finally:
                if prof is not None:
                    prof.disable()
            wall_s = time.perf_counter() - began
            probe_after = probe_seconds()
            call = Call(phase, name, code, prof, wall_s, (probe_before + probe_after) / 2)
            probe_before = probe_after
            runs.append((call, out.getvalue(), out_dir))
    for call, stdout, out_dir in runs:
        _scan(call, stdout, out_dir)
    shutil.rmtree(pass_dir)
    return Pass([call for call, _stdout, _dir in runs])


def count_failures(p: Pass, expected: Dict[str, str]) -> int:
    """Invocations that exited non-zero, raised, or wrote unexpected bytes.

    Cold and warm phases are both held to the same digests, so a warm
    replay must reproduce the cold pass byte for byte.
    """
    failed = 0
    for call in p.calls:
        prefix = call.experiment + "/"
        want = {k: v for k, v in expected.items() if k.startswith(prefix)}
        if call.exit_code != 0 or call.digests != want:
            failed += 1
            wrong = sorted(set(want.items()) ^ set(call.digests.items()))
            print(
                f"perfbench: {call.phase} {call.experiment}: exit "
                f"{call.exit_code}, differing artifacts "
                f"{sorted({k for k, _v in wrong})}",
                file=sys.stderr,
            )
    return failed


# --- set-up --------------------------------------------------------------------

_SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import repro.cli\n"
    "from repro.core.registry import REGISTRY\n"
    "print(time.perf_counter() - t0, len(REGISTRY))\n"
)


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the checkout's ``src``; wait for it."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )


def setup_seconds(registered: int) -> float:
    """Median normalised seconds for a fresh interpreter to import ``repro.cli``.

    The import ends when every experiment is registered; each sample must
    register the same experiments this process sees.  The interpreters
    inherit this process's CPU, and each sample is normalised by the
    probes just before and after it.
    """
    samples = []
    probe_before = probe_seconds()
    for i in range(SETUP_SAMPLES + 1):
        elapsed, count = _python("-c", _SETUP_PROBE).stdout.split()
        if int(count) != registered:
            raise BenchError(f"a fresh import registered {count} experiments, not {registered}")
        probe_after = probe_seconds()
        if i:  # the first import compiles bytecode caches
            samples.append(normalised(float(elapsed), (probe_before + probe_after) / 2))
        probe_before = probe_after
    return statistics.median(samples)


def prepare(names: List[str]) -> int:
    """Check the workloads can run, then import every ``repro`` module.

    Fails up front, naming the problem, on a missing checkout, a missing
    optional dependency, or an experiment name the registry does not know.
    Returns the number of registered experiments.
    """
    if not os.path.isfile(os.path.join(REPRO_ROOT, "cli.py")):
        raise BenchError(
            f"no repro package under {SRC}; run from the root of a checkout"
        )
    for name in names:
        missing = [r for r in WORKLOADS[name].requires if importlib.util.find_spec(r) is None]
        if missing:
            raise BenchError(
                f"workload {name} needs {', '.join(missing)}, which is not installed"
            )
    sys.path.insert(0, SRC)
    import repro.cli  # noqa: F401  (registers every experiment)
    from repro.core import registry

    for name in names:
        unknown = [e for e in WORKLOADS[name].experiments if registry.get(e) is None]
        if unknown:
            raise BenchError(
                f"workload {name} names unregistered experiment(s) "
                f"{', '.join(unknown)}; registered: {', '.join(registry.names())}"
            )
    # Experiments import their modules lazily; importing everything now
    # keeps that cost out of the first timed pass (setup_s measures it).
    for mod in pkgutil.walk_packages([REPRO_ROOT], "repro."):
        if mod.name != "repro.__main__":
            importlib.import_module(mod.name)
    for name in names:
        for requirement in WORKLOADS[name].requires:
            importlib.import_module(requirement)
    return len(registry.REGISTRY)


# --- the two measurements ------------------------------------------------------

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    metrics: Metrics = field(default_factory=dict)

    def add(self, p: Pass, expected: Dict[str, str]) -> None:
        self.attempted += len(p.calls)
        self.failed += count_failures(p, expected)
        self.passes += 1


def measure_end_to_end(
    result: Result, workload: Workload, seed: int, seconds: float, expected,
    work_dir: str, registered: int,
) -> None:
    """Repeat the workload for about *seconds*; report its fastest cost.

    ``wall_s`` sums, over the workload's invocations, each invocation's
    fastest time among the passes, normalised by the fastest probe of the
    run.  Co-tenant load on a shared host slows stretches of seconds to
    minutes, and a fresh process's first pass also pays for growing its
    heap.  Taking the fastest of both the work and the probe compares the
    quietest moments a run saw (README.md has the measurements).
    """
    setup_s = setup_seconds(registered)
    fastest: Dict[Tuple[str, str], float] = {}
    fastest_probe = float("inf")
    slowest_pass = 0.0
    start = time.perf_counter()
    while True:
        p = run_pass(workload, seed, work_dir, profile=False)
        result.add(p, expected)
        for c in p.calls:
            key = (c.phase, c.experiment)
            fastest[key] = min(fastest.get(key, c.wall_s), c.wall_s)
            fastest_probe = min(fastest_probe, c.probe_s)
        print("pass " + " ".join(
            f"{c.phase}:{c.experiment}={c.wall_s:.4f}/{c.probe_s:.4f}" for c in p.calls
        ), file=sys.stderr)
        slowest_pass = max(slowest_pass, p.wall_s)
        # After MIN_PASSES, stop unless even the slowest pass so far would
        # still fit in the budget.
        elapsed = time.perf_counter() - start
        if result.passes >= MIN_PASSES and elapsed + slowest_pass > seconds:
            break
    result.metrics.update({
        "wall_s": (normalised(sum(fastest.values()), fastest_probe), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })


def profile_pass(workload: Workload, seed: int, work_dir: str):
    """One profiled pass: the pass and its merged ``pstats`` dict."""
    p = run_pass(workload, seed, work_dir, profile=True)
    return p, pstats.Stats(*(c.profile for c in p.calls)).stats


def measure_layers(
    result: Result, workload: Workload, seed: int, expected, work_dir: str,
    layer_map, keys,
) -> None:
    """Time one pass, profile a second; per-layer metrics of the second."""
    plain = run_pass(workload, seed, work_dir, profile=False)
    result.add(plain, expected)
    traced, stats = profile_pass(workload, seed, work_dir)
    result.add(traced, expected)

    metrics: Metrics = {}
    self_s, calls_in = layers.attribute(stats, layer_map)
    for bucket in layer_map.buckets:
        metrics[f"{bucket}.self_s"] = (self_s[bucket], "s")
        metrics[f"{bucket}.calls_in"] = (calls_in[bucket], "count")
    dumps = [_python("-X", "importtime", "-c", "import repro.cli").stderr
             for _ in range(IMPORTTIME_SAMPLES)]
    for layer, seconds in layers.import_seconds(dumps, layer_map).items():
        metrics[f"{layer}.import_s"] = (seconds, "s")
    for metric, count in layers.work_counts(stats, keys).items():
        metrics[metric] = (count, "count")
    for phase in ("cold", "warm"):
        calls = [c for c in traced.calls if c.phase == phase]
        ratio = 0.0  # no cache in use
        if calls:
            counts = layers.work_counts(
                pstats.Stats(*(c.profile for c in calls)).stats, keys
            )
            if counts["exec.cache_loads"]:
                ratio = 1 - counts["exec.cache_stores"] / counts["exec.cache_loads"]
        metrics[f"exec.cache_hit_ratio_{phase}"] = (ratio, "ratio")
    first_phase = [c for c in traced.calls if c.phase in ("run", "cold")]
    metrics["obs.trace_bytes"] = (sum(c.trace_bytes for c in first_phase), "bytes")
    metrics["obs.trace_lines"] = (sum(c.trace_lines for c in first_phase), "count")
    metrics["profile.overhead"] = (traced.normalised_s / plain.normalised_s, "ratio")
    result.metrics.update(metrics)


# --- self-check ------------------------------------------------------------------


def self_check(seed: int, expected_all, work_dir: str, layer_map) -> bool:
    """Profile each workload once and check the workload design holds.

    Shares are of profiled self time; "repro" shares count only the
    ``repro`` layers (packages plus ``cli``).
    """
    repro_layers = layer_map.packages + ("cli",)
    total: Dict[str, float] = {}
    by_workload: Dict[str, Dict[str, float]] = {}
    by_experiment: Dict[str, Dict[str, float]] = {}
    checks: List[Tuple[str, bool]] = []
    for name, workload in WORKLOADS.items():
        p, stats = profile_pass(workload, seed, work_dir)
        checks.append((f"{name}: every invocation matches the manifest",
                       count_failures(p, expected_all[name]) == 0))
        self_s, _calls = layers.attribute(stats, layer_map)
        total[name] = sum(entry[2] for entry in stats.values())
        checks.append((f"{name}: bucket self times sum to the profiled total",
                       abs(sum(self_s.values()) - total[name]) <= 1e-9 * total[name]))
        by_workload[name] = self_s
        for call in p.calls:
            if call.phase in ("run", "cold") and call.experiment not in by_experiment:
                one = pstats.Stats(call.profile).stats
                by_experiment[call.experiment] = layers.attribute(one, layer_map)[0]

    def repro_share(self_s, layer):
        return self_s[layer] / sum(self_s[l] for l in repro_layers)

    def largest(self_s, n=1):
        return set(sorted(repro_layers, key=self_s.get, reverse=True)[:n])

    def share(name, *buckets):
        return sum(by_workload[name][b] for b in buckets) / total[name]

    print(f"{'workload':16s} {'total_s':>8s}  largest buckets (share of profiled self time)")
    for name, self_s in by_workload.items():
        top = sorted(self_s, key=self_s.get, reverse=True)[:6]
        print(f"{name:16s} {total[name]:8.2f}  "
              + "  ".join(f"{b} {self_s[b] / total[name]:.0%}" for b in top))
    print(f"{'experiment':18s} largest repro layers (share of repro self time)")
    for exp, self_s in by_experiment.items():
        top = sorted(repro_layers, key=self_s.get, reverse=True)[:4]
        print(f"{exp:18s} " + "  ".join(f"{l} {repro_share(self_s, l):.0%}" for l in top))

    w, e = by_workload, by_experiment
    checks += [
        ("fleet_memory: memory is the largest repro layer", largest(w["fleet_memory"]) == {"memory"}),
        ("hybrid_scale: scale or net is the largest repro layer",
         largest(w["hybrid_scale"]) <= {"scale", "net"}),
        ("paper_sched_net: cpu or sim is the largest repro layer",
         largest(w["paper_sched_net"]) <= {"cpu", "sim"}),
        ("traced_replay: obs+exec share above every other workload's",
         all(share("traced_replay", "obs", "exec") > share(n, "obs", "exec")
             for n in WORKLOADS if n != "traced_replay")),
        ("hybrid_scale: memory below 2% of self time", share("hybrid_scale", "memory") < 0.02),
        ("fleet_memory: scale below 2% of self time", share("fleet_memory", "scale") < 0.02),
        ("tab-mem: memory at least 70% of repro self time", repro_share(e["tab-mem"], "memory") >= 0.7),
        ("fleet_capacity: memory at least 70% of repro self time",
         repro_share(e["fleet_capacity"], "memory") >= 0.7),
        ("fig2: cpu is the largest repro layer", largest(e["fig2"]) == {"cpu"}),
        ("fig3: cpu is the largest repro layer", largest(e["fig3"]) == {"cpu"}),
        ("scale_load_curve: scale and net are the two largest repro layers",
         largest(e["scale_load_curve"], 2) == {"scale", "net"}),
    ]
    declared = _declared_per_layer()
    if declared is not None:
        derived = _per_layer_names(layer_map)
        checks.append(("BENCHMARK.json lists exactly the per-layer metrics printed",
                       declared == derived))
    for text, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {text}")
    return all(ok for _text, ok in checks)


def _per_layer_names(layer_map) -> List[str]:
    names = [f"{b}.{m}" for b in layer_map.buckets for m in ("self_s", "calls_in")]
    names += [f"{l}.import_s" for l in layer_map.packages + ("cli",)]
    names += list(layers.WORK_COUNTS)
    names += ["exec.cache_hit_ratio_cold", "exec.cache_hit_ratio_warm",
              "obs.trace_bytes", "obs.trace_lines", "profile.overhead"]
    return names


def _declared_per_layer() -> Optional[List[str]]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


# --- manifest ----------------------------------------------------------------------


def write_manifest(work_dir: str) -> None:
    """Record every workload's artifact digests at each manifest seed.

    A replay's warm phase must reproduce its cold phase byte for byte.
    """
    digests: Dict[str, Dict[str, Dict[str, str]]] = {}
    for seed in MANIFEST_SEEDS:
        for name, workload in WORKLOADS.items():
            p = run_pass(workload, seed, work_dir, profile=False)
            phases: Dict[str, Dict[str, str]] = {}
            for call in p.calls:
                if call.exit_code != 0:
                    raise BenchError(f"{name} {call.experiment} exited {call.exit_code}")
                phases.setdefault(call.phase, {}).update(call.digests)
            if workload.replay and phases["cold"] != phases["warm"]:
                raise BenchError(f"{name}: the warm replay differs from the cold pass")
            digests.setdefault(str(seed), {})[name] = next(iter(phases.values()))
            print(f"seed {seed} {name}: {len(digests[str(seed)][name])} artifacts",
                  file=sys.stderr)
    with open(MANIFEST, "w") as f:
        json.dump({"seeds": list(MANIFEST_SEEDS), "digests": digests}, f,
                  indent=1, sort_keys=True)
        f.write("\n")


def _load_manifest() -> dict:
    try:
        with open(MANIFEST) as f:
            manifest = json.load(f)
    except OSError as exc:
        raise BenchError(f"cannot read the digest manifest: {exc}") from exc
    if manifest["seeds"] != list(MANIFEST_SEEDS):
        raise BenchError("manifest seeds differ from MANIFEST_SEEDS; regenerate it")
    return manifest


# --- entry point -----------------------------------------------------------------


def _report(results: Dict[str, Result], prefixed: bool) -> None:
    metrics = {}
    for name, r in results.items():
        print(f"# {name}: {r.passes} passes")
        rows = [("ops", r.attempted, "count"), ("failed_ops", r.failed, "count")]
        rows += [(m, v, u) for m, (v, u) in r.metrics.items()]
        for metric, value, unit in rows:
            shown = f"{value:>18}" if isinstance(value, int) else f"{value:>18.6f}"
            print(f"{name:16s} {metric:28s} {shown} {unit}")
        for metric, (value, unit) in r.metrics.items():
            metrics[f"{name}.{metric}" if prefixed else metric] = {"value": value, "unit": unit}
    failed = sum(r.failed for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="profile every workload once and check the design holds")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate manifest.json from the current code")
    args = parser.parse_args(argv)
    single = args.workload != "all" and not (args.self_check or args.write_manifest)
    names = [args.workload] if single else list(WORKLOADS)
    if hasattr(os, "sched_setaffinity"):
        # The probes must see the same CPU, and so the same co-tenants, as
        # the work they normalise.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_dir = None
    try:
        registered = prepare(names)
        layer_map = layers.LayerMap(REPRO_ROOT)
        os.makedirs(WORK_ROOT, exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        if args.write_manifest:
            write_manifest(work_dir)
            return 0
        manifest = _load_manifest()
        seed = MANIFEST_SEEDS[args.seed % len(MANIFEST_SEEDS)]
        expected = manifest["digests"][str(seed)]
        if args.self_check:
            return 0 if self_check(seed, expected, work_dir, layer_map) else 1
        keys = layers.work_count_keys()
        results = {}
        everything = args.workload == "all"  # both metric sets, every workload
        for name in names:
            result = results[name] = Result()
            if everything or not args.trace:
                measure_end_to_end(result, WORKLOADS[name], seed, args.seconds,
                                   expected[name], work_dir, registered)
            if everything or args.trace:
                measure_layers(result, WORKLOADS[name], seed, expected[name],
                               work_dir, layer_map, keys)
        _report(results, prefixed=everything)
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if work_dir is not None:
            shutil.rmtree(work_dir, ignore_errors=True)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
