"""The host-speed probe that end-to-end times are scaled by.

The benchmark's host is a shared virtual machine whose processor speed drifts
by 20-50% within seconds to minutes as other tenants come and go.  CPU time
tracks wall time, so the slowdowns are not time stolen from the VM, and the
drift is per virtual CPU: probes run at the same moment on the two vCPUs
correlate at only about 0.2.  A probe therefore has to share the timed
process and be interleaved with the work it scales.

``probe`` runs a fixed unit of the same mix of work as fbplab's hot loops -- a
Python-level RK4 loop over small mode vectors with a small matrix product and a
piecewise-linear map, then formatting floats with 17 significant digits as the
CSV writer does -- without calling fbplab, so no change to the program moves
it.  ``Sampler`` runs one unit every ``INTERVAL`` seconds of a timed pass from a
SIGALRM handler, so the probe follows the pass through its long operations;
the handler's own time is taken out of the pass.

A time is reported in reference-host seconds: the wall time multiplied by
``REFERENCE_UNIT_S`` over the mean probe time of one unit while it ran.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: seconds one probe unit takes on the reference machine (perfbench/README.md)
REFERENCE_UNIT_S = 0.005
#: wall seconds between two probe units inside a sampled pass
INTERVAL = 0.1

_RNG = np.random.default_rng(20131028)
_BASIS = _RNG.standard_normal((128, 33))
_ANALYSIS = _RNG.standard_normal((33, 128)) * 0.01
_RATES = -1e-3 * np.arange(33.0) ** 2
_STEPS = 75            # RK4 steps per unit
_ROWS = 10             # formatted rows of 128 floats per unit


def _flux(state: np.ndarray) -> np.ndarray:
    vals = _BASIS @ state
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("probe state overflowed")
    return _RATES * (_ANALYSIS @ np.where(vals <= 0.0, vals,
                                          np.where(vals >= 1.0, vals - 2.0, -vals)))


def probe(units: int = 1) -> float:
    """Wall seconds per unit of a fixed amount of work on this host, now."""
    start = time.perf_counter()
    for unit in range(units):
        state = np.zeros(33)
        state[1] = 0.1
        h = 1e-3
        for _ in range(_STEPS):
            k1 = _flux(state)
            k2 = _flux(state + 0.5 * h * k1)
            k3 = _flux(state + 0.5 * h * k2)
            k4 = _flux(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for row in range(_ROWS):
            ",".join(format(v, ".17g") for v in _BASIS[:, (unit + row) % 33] + state[row])
    return (time.perf_counter() - start) / units


def scale(unit_s: float) -> float:
    """Factor that turns wall seconds measured while one probe unit took
    ``unit_s`` into reference-host seconds."""
    return REFERENCE_UNIT_S / unit_s


class Sampler:
    """Runs one probe unit every ``INTERVAL`` wall seconds while entered.

    ``busy`` is the time the probes took, to be taken out of the pass they
    interrupted, and ``mean`` their mean time per unit.  A handler that falls
    due inside a long call into C runs when that call returns.
    """

    def __init__(self):
        self.units: list[float] = []
        self._previous = None

    def __enter__(self) -> "Sampler":
        self.units = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.units.append(probe())

    @property
    def busy(self) -> float:
        return sum(self.units)

    @property
    def mean(self) -> float:
        return sum(self.units) / len(self.units)
