"""Closed-form queueing models cross-validated against the simulator.

The artifact-digest manifest (``tests/golden/artifacts.json``) proves every
experiment's output stays byte-for-byte the same — but nothing there checks
that the output matches reality.  This package supplies the independent check: textbook queueing
theory (Gunther's X-terminal analysis, Gray's NC-farm arithmetic) applied
to the exact scenarios the simulator runs, with a comparison harness that
reports relative error.

* :mod:`~repro.analytic.queueing` — M/M/1, M/D/1, and M/G/1
  (Pollaczek–Khinchine) open-queue predictions, plus service-mixture
  moments for multi-class traffic.
* :mod:`~repro.analytic.mva` — exact Mean Value Analysis for closed
  think/interact networks (the fleet's session shape), with the
  ``N* = (Z + ΣD)/D_max`` saturation knee.
* :mod:`~repro.analytic.workbench` — model-faithful simulation points on
  the real kernel and network layer.
* :mod:`~repro.analytic.validate` — side-by-side comparison rows with
  relative errors; the oracle suite in ``tests/analytic`` asserts they
  stay within tolerance in light traffic.
* :mod:`~repro.analytic.experiments` — the registered ``analytic_link``
  and ``analytic_closed`` overlay experiments.
"""

from .mva import MvaSolution, saturation_population, solve_mva, solve_mva_curve
from .queueing import (
    OpenQueuePrediction,
    ServiceMix,
    md1_prediction,
    mg1_prediction,
    mg1_wait_quantile_bound,
    mm1_prediction,
    mm1_sojourn_quantile,
    mm1_wait_quantile,
    service_mix,
)
from .validate import (
    ComparisonRow,
    compare_closed_loop,
    compare_link_probe,
    compare_open_queue,
    compare_open_queue_quantiles,
    predict_link_probe,
)
from .workbench import (
    ClosedLoopObservation,
    LinkProbeObservation,
    QueueObservation,
    simulate_closed_loop,
    simulate_link_probe,
    simulate_open_queue,
)

__all__ = [
    "MvaSolution",
    "saturation_population",
    "solve_mva",
    "solve_mva_curve",
    "OpenQueuePrediction",
    "ServiceMix",
    "md1_prediction",
    "mg1_prediction",
    "mg1_wait_quantile_bound",
    "mm1_prediction",
    "mm1_sojourn_quantile",
    "mm1_wait_quantile",
    "service_mix",
    "ComparisonRow",
    "compare_closed_loop",
    "compare_link_probe",
    "compare_open_queue",
    "compare_open_queue_quantiles",
    "predict_link_probe",
    "ClosedLoopObservation",
    "LinkProbeObservation",
    "QueueObservation",
    "simulate_closed_loop",
    "simulate_link_probe",
    "simulate_open_queue",
]
