"""Registry-wide artifact digests.

``artifacts.json`` pins the sha256 of every byte a registered experiment
writes at ``--seed 1``: stdout, every CSV, and (for ``trace``) every
``*.trace.jsonl`` and ``*.metrics.json``.  Each experiment runs in-process
through :func:`repro.cli.main` five ways, and all five must match:

* ``run`` serial into an empty cache, then again as a warm replay;
* ``trace`` serial into the same cache, then again as a warm replay;
* ``trace --jobs 2`` with no cache.

Registering an experiment is all it takes to cover it: the manifest's keys
must equal the registry in order, so a new experiment fails here until the
manifest is regenerated with ``--update-goldens`` (see README.md).
"""

import hashlib
import io
import json
import os

import pytest

from repro.cli import EXPERIMENTS, main

MANIFEST = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "artifacts.json"
)

SEED = "1"

#: Faulted invocations pinned on top of the clean registry sweep: the
#: chaos sweep's own naming, the shared ``ping+faults[...]`` sweep, and a
#: fleet sweep whose points take the fault plan.
FAULTED = {
    "chaos": [
        "--faults",
        "loss=0.05,corrupt=0.01,jitter_ms=2,outage=5000-6000",
        "--fault-seed",
        "7",
    ],
    "fig9": ["--faults", "loss=0.02", "--fault-seed", "3"],
    "fleet_placement": ["--faults", "loss=0.02", "--fault-seed", "3"],
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _invoke(out_dir, command, name, *options):
    """Run one CLI invocation; digest its stdout and every file it wrote."""
    argv = [command, name, "--seed", SEED, "--csv", str(out_dir / "csv")]
    if command == "trace":
        argv += ["--trace-dir", str(out_dir / "trace")]
    out = io.StringIO()
    assert main(argv + list(options), out=out) == 0, out.getvalue()
    digests = {"stdout": _sha256(out.getvalue().encode())}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            key = path.relative_to(out_dir).as_posix()
            digests[key] = _sha256(path.read_bytes())
    return digests


def _sweep(tmp_path, name, commands, *options):
    """Digests of every invocation of *name*, by command, cold run first."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    runs = {
        command: [
            _invoke(tmp_path / f"{command}-{replay}", command, name,
                    *cache, *options)
            for replay in ("cold", "warm")
        ]
        for command in commands
    }
    runs["trace"].append(
        _invoke(tmp_path / "trace-jobs", "trace", name, "--jobs", "2",
                *options)
    )
    return runs


def _load():
    if not os.path.exists(MANIFEST):
        return {"experiments": {}, "faulted": {}}
    with open(MANIFEST) as f:
        return json.load(f)


def _store(section, name, entry):
    """Rewrite one manifest entry, keeping registry order and nothing stale."""
    manifest = _load()
    entries = {**manifest[section], name: entry}
    order = EXPERIMENTS if section == "experiments" else FAULTED
    manifest[section] = {n: entries[n] for n in order if n in entries}
    with open(MANIFEST, "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")


def _check(request, section, name, runs, args=None):
    """Every invocation in *runs* must match the manifest's cold digests."""
    if request.config.getoption("--update-goldens"):
        cold = {command: results[0] for command, results in runs.items()}
        _store(section, name, {"args": args, **cold} if args else cold)
    pinned = _load()[section].get(name)
    assert pinned is not None, (
        f"{name} has no entry in {os.path.basename(MANIFEST)}; regenerate "
        "it with pytest tests/golden --update-goldens"
    )
    assert pinned.get("args") == args
    for command, results in runs.items():
        for index, digests in enumerate(results):
            assert digests == pinned[command], (
                f"{name} {command} invocation {index} diverged from the "
                "manifest; if the change is intentional, rerun with "
                "--update-goldens and review the diff"
            )


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_matches_manifest(name, tmp_path, request):
    runs = _sweep(tmp_path, name, ("run", "trace"))
    _check(request, "experiments", name, runs)


@pytest.mark.parametrize("name", list(FAULTED))
def test_faulted_run_matches_manifest(name, tmp_path, request):
    runs = _sweep(tmp_path, name, ("trace",), *FAULTED[name])
    _check(request, "faulted", name, runs, FAULTED[name])


def test_manifest_covers_the_registry_in_order():
    """The manifest is the registry: same experiments, same order.

    ``run all`` executes in registry order and sweep cache keys embed the
    experiment names, so the order is part of the compatibility surface.
    """
    manifest = _load()
    assert list(manifest["experiments"]) == list(EXPERIMENTS)
    assert list(manifest["faulted"]) == list(FAULTED)
