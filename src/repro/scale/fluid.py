"""Fluid background workload on a link: the hybrid tier's fast half.

A million background users offer ~capacity bytes per second no matter how
large the population is, but the *event count* of simulating them per
packet scales with the population.  This module removes the events
entirely: the background's per-tick byte counts are presampled into one
array (see :mod:`repro.net.loadgen`), and the link's unfinished work
``W(t)`` is integrated lazily and analytically between probe packets.

Within a tick the sampled bytes are spread uniformly — fluid inflow at
rate ``rho = offered_bytes_per_ms / capacity_bytes_per_ms`` — so the
workload is piecewise linear: on a segment of length ``dt``,

* ``rho >= 1``: the queue grows, ``W += (rho - 1) * dt``;
* ``rho < 1``: the queue drains, ``W = max(0, W - (1 - rho) * dt)``
  (once empty it stays empty for the rest of the segment, because the
  inflow is constant and below capacity).

Discrete foreground packets (the probes) add their own service time as a
step in the same process, so FIFO waits stay exact with respect to the
*fluid* arrival pattern; smearing within-tick arrival times is the one
approximation, and it vanishes as ``tick_ms`` shrinks relative to the
service time (the differential-equivalence suite pins this at small N).

Integration is O(ticks crossed), amortized O(total ticks) per run —
independent of the population size.  Both per-tick series are packed
doubles (``array('d')``, 8 bytes per tick): indexing one yields a builtin
``float``, so the integrator's scalar loop and every delay it reports stay
plain Python floats, while the whole-horizon scans run as numpy passes
over the same buffers.
"""

from __future__ import annotations

from array import array

from ..errors import NetworkError
from ..net.loadgen import _numpy


def _sequential_total(np, values) -> float:
    """Left-to-right float total of *values*, bit-identical to a Python loop.

    ``np.add.accumulate`` adds strictly in order (``np.sum`` is pairwise,
    and builtin ``sum`` compensates from Python 3.12 on).
    """
    if not len(values):
        return 0.0
    return float(np.add.accumulate(values)[-1])


class FluidBackground:
    """Piecewise-linear unfinished-work integrator for a hybrid link.

    Parameters
    ----------
    link:
        The :class:`repro.net.link.Link` whose capacity drains the work.
        Pass ``attach=False`` to build an unattached integrator (unit
        tests); otherwise the constructor wires itself in via
        :meth:`~repro.net.link.Link.attach_background`.
    tick_ms:
        Width of each presampled tick.
    tick_bytes:
        Sequence (list or numpy array) of offered background bytes per
        tick, starting at simulation time ``start_ms``.  Beyond the last
        tick the background offers nothing (the queue drains).  Pass an
        empty sequence and feed ticks at runtime via :meth:`offer_tick`
        for workloads that cannot be presampled (closed-loop populations,
        whose offered bytes depend on the latency they experience).
    """

    def __init__(self, link, tick_ms: float, tick_bytes, *, start_ms: float = 0.0,
                 attach: bool = True) -> None:
        if tick_ms <= 0:
            raise NetworkError("tick_ms must be positive")
        if start_ms < 0:
            raise NetworkError("start_ms cannot be negative")
        np = _numpy()
        offered = np.asarray(tick_bytes, dtype=np.float64)
        if (offered < 0).any():
            raise NetworkError("offered bytes cannot be negative")
        self.link = link
        self.tick_ms = tick_ms
        self.start_ms = start_ms
        self._capacity = capacity = link.bytes_per_ms
        # Inflow ratio per tick: background work-ms arriving per elapsed ms.
        # Built from the raw bytes: array("d", ndarray) would box each
        # element into a Python float first.
        self._rho = array("d", (offered / tick_ms / capacity).tobytes())
        self._bytes = array("d", offered.tobytes())
        self.offered_bytes_total = _sequential_total(np, offered)
        self._w = 0.0  # unfinished work (ms of transmission) at time _t
        self._t = start_ms
        self.peak_backlog_ms = 0.0
        if attach:
            link.attach_background(self)

    @property
    def n_ticks(self) -> int:
        """Number of presampled background ticks."""
        return len(self._rho)

    @property
    def end_ms(self) -> float:
        """Time at which the background stops offering bytes."""
        return self.start_ms + self.tick_ms * len(self._rho)

    # -- the workload process ----------------------------------------------

    def _advance(self, now: float) -> None:
        """Integrate W forward from the last query time to *now*."""
        t = self._t
        if now <= t:
            return
        w = self._w
        tick = self.tick_ms
        rho = self._rho
        n = len(rho)
        # Index of the tick containing t (relative to start_ms); on an
        # exact boundary this is the tick that *starts* there.
        i = int((t - self.start_ms) / tick)
        peak = self.peak_backlog_ms
        while t < now:
            seg_end = self.start_ms + (i + 1) * tick
            if seg_end > now:
                seg_end = now
            dt = seg_end - t
            r = rho[i] if 0 <= i < n else 0.0
            if r >= 1.0:
                w += (r - 1.0) * dt
                if w > peak:
                    peak = w
            else:
                w -= (1.0 - r) * dt
                if w < 0.0:
                    w = 0.0
            t = seg_end
            i += 1
        self._w = w
        self._t = now
        self.peak_backlog_ms = peak

    def queueing_delay_ms(self, now: float) -> float:
        """Unfinished work W(now): the FIFO wait a packet arriving now sees."""
        self._advance(now)
        return self._w

    def offer_tick(self, tick_bytes: float) -> None:
        """Append one tick's offered bytes at runtime (streaming mode).

        Open populations presample their whole horizon, but a closed-loop
        population's next tick depends on the completions this one sees,
        so its driver appends tick bytes as the simulation reaches each
        boundary.  The appended tick covers ``[end_ms, end_ms + tick_ms)``
        and must land before the integrator crosses its start — queries
        smear it uniformly exactly like a presampled tick.
        """
        if tick_bytes < 0:
            raise NetworkError("offered bytes cannot be negative")
        tick = self.tick_ms
        if self._t > self.start_ms + tick * len(self._rho):
            raise NetworkError(
                "cannot append a background tick the integrator has passed"
            )
        b = float(tick_bytes)
        self._rho.append(b / tick / self._capacity)
        self._bytes.append(b)
        self.offered_bytes_total += b

    def add_work_ms(self, ms: float) -> None:
        """Add a discrete packet's service time to the workload (a step)."""
        if ms < 0:
            raise NetworkError("work cannot be negative")
        self._w += ms
        if self._w > self.peak_backlog_ms:
            self.peak_backlog_ms = self._w

    # -- reporting helpers -------------------------------------------------

    def offered_bytes(self, t0: float, t1: float) -> float:
        """Background bytes offered over ``[t0, t1)`` (pro-rata at edges)."""
        if t1 <= t0:
            raise NetworkError("empty offered_bytes window")
        np = _numpy()
        tick = self.tick_ms
        start = self.start_ms
        n = len(self._bytes)
        # Scan only the ticks near the window; one tick of slack each side
        # absorbs rounding in the index estimate, and the overlap mask
        # below decides membership exactly as a scan of every tick would.
        first = max(0, int((t0 - start) // tick) - 1) if t0 > start else 0
        stop = min(n, int((t1 - start) // tick) + 2) if t1 < self.end_ms else n
        if first >= stop:
            return 0.0
        b = np.frombuffer(self._bytes, dtype=np.float64)[first:stop]
        lo = start + np.arange(first, stop, dtype=np.float64) * tick
        overlap = np.minimum(lo + tick, t1) - np.maximum(lo, t0)
        hit = overlap > 0
        return _sequential_total(np, b[hit] * (overlap[hit] / tick))

    def utilization(self, t0: float, t1: float) -> float:
        """Background offered load over ``[t0, t1)`` as a fraction of capacity."""
        return self.offered_bytes(t0, t1) / (self.link.bytes_per_ms * (t1 - t0))
