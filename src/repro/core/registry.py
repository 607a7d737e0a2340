"""The experiment registry: named, grouped, runnable reproductions.

Experiments used to be hand-wired into ``cli.py``'s dispatch table; adding
one meant editing the CLI.  The registry inverts that: an experiment
registers *itself* with the :func:`experiment` decorator::

    from repro.core.registry import experiment

    @experiment("fleet_capacity", group="fleet",
                title="Sessions per server vs fleet size")
    def _fleet_capacity(ctx):
        ...

and every registry consumer — ``repro list``, ``repro run``, ``repro
trace``, ``run all`` — picks it up without a CLI change.  The fleet,
analytic, SLO and scale modules instead export a ``SPECS`` tuple of
:class:`ExperimentSpec`, which ``repro.cli`` passes to :func:`register`
in one fixed sequence after the paper set.

Two ordering contracts keep historical artifacts stable:

* **Run order is registration order.**  ``run all`` iterates the registry
  in insertion order, so the paper experiments keep the exact sequence the
  pre-registry CLI hard-coded (goldens and cache keys are unchanged);
  later registrations append after them.
* **Groups are display-only.**  ``repro list`` renders one table per
  group (groups ordered by first registration), but grouping never
  reorders execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import ExperimentError


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: id, human title, display group, runner.

    ``run`` receives a single :class:`~repro.exec.RunContext` carrying the
    seed, output stream, CSV directory, and execution policy.
    """

    name: str
    title: str
    group: str
    run: Callable


#: The live registry, in registration order.  ``repro run all`` iterates
#: this mapping directly; mutate it only through :func:`register` /
#: :func:`unregister`.
REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add *spec* to the registry; duplicate names are a hard error."""
    if spec.name in REGISTRY:
        raise ExperimentError(
            f"experiment {spec.name!r} is already registered "
            f"(group {REGISTRY[spec.name].group!r})"
        )
    REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove one experiment (registration-order of the rest is kept)."""
    if name not in REGISTRY:
        raise ExperimentError(f"experiment {name!r} is not registered")
    del REGISTRY[name]


def experiment(
    name: str, *, title: str, group: str = "paper"
) -> Callable[[Callable], Callable]:
    """Class-free registration decorator; returns the runner unchanged.

    ``group`` labels the ``repro list`` section the experiment appears
    under; it never affects run order.
    """

    def decorate(fn: Callable) -> Callable:
        register(ExperimentSpec(name=name, title=title, group=group, run=fn))
        return fn

    return decorate


def get(name: str) -> Optional[ExperimentSpec]:
    """The spec registered under *name*, or ``None``."""
    return REGISTRY.get(name)


def names() -> List[str]:
    """All experiment ids, in registration (= ``run all``) order."""
    return list(REGISTRY)


def specs() -> List[ExperimentSpec]:
    """All registered specs, in registration order."""
    return list(REGISTRY.values())


def groups() -> Dict[str, List[ExperimentSpec]]:
    """Specs bucketed by group, groups ordered by first registration.

    Within a group, specs keep registration order — the same order
    ``run all`` executes them in.
    """
    grouped: Dict[str, List[ExperimentSpec]] = {}
    for spec in REGISTRY.values():
        grouped.setdefault(spec.group, []).append(spec)
    return grouped
