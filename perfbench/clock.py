"""Operation times in reference seconds.

A shared machine's speed drifts: a fixed Python loop timed 30 times in a
row took from 0.16 to 0.26 s, and ten runs of the same workload spread by
a quarter.  So the benchmark times, between operations, a fixed
calibration kernel that uses nothing of poolkit (numpy arithmetic and one
HiGHS LP through scipy), and scales each operation's wall time by
``NOMINAL_S`` over the mean of the kernel times measured just before and
just after the operation.  An operation reads
then as it would on a machine where the kernel takes ``NOMINAL_S``; a
change to poolkit moves it in full, the machine's drift much less.  The
kernel runs again once ``INTERVAL_S`` of operations have been timed since
it last ran, and its own time is never part of an operation's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

NOMINAL_S = 0.03     # the kernel's time on the reference machine
INTERVAL_S = 0.1     # operation seconds between two calibrations

_rng = np.random.default_rng(0)
_A = _rng.random((120, 240))
_B = _A.sum(axis=1) * 0.5
_C = -_rng.random(240)
# in place, so that the kernel adds nothing to the peak resident set
_X = np.arange(250_000, dtype=float)
_Y = np.empty_like(_X)


def kernel() -> None:
    """The fixed calibration work: the same every call."""
    _X[:] = np.arange(_X.size)
    for _ in range(12):
        np.multiply(_X, _X, out=_Y)
        np.add(_Y, 1.0, out=_Y)
        np.sqrt(_Y, out=_X)
    res = milp(_C, constraints=LinearConstraint(_A, -np.inf, _B), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"calibration LP ended with status {res.status}")


class Op:
    """One timed operation; use it as a context manager.  Its wall time is
    kept even when the operation raises."""

    def __init__(self, clock: "Clock"):
        self.clock = clock
        self.index = -1

    def __enter__(self) -> "Op":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.index = self.clock._record(time.perf_counter() - self._t0)

    @property
    def seconds(self) -> float:
        """Reference seconds; valid once the clock is closed."""
        return self.clock.seconds(self.index)

    @property
    def wall(self) -> float:
        return self.clock._raw[self.index][1]


class Clock:
    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.kernel_s: list[float] = []
        self._raw: list[tuple[int, float]] = []   # (calibrations before, wall s)
        self._since = 0.0
        kernel()            # warm-up: the first call pays for lazy set-up
        self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.kernel_s.append(time.perf_counter() - t0)
        self._since = 0.0

    def op(self) -> Op:
        return Op(self)

    def _record(self, wall: float) -> int:
        self._raw.append((len(self.kernel_s), wall))
        self._since += wall
        if self._since >= self.interval_s:
            self.calibrate()
        return len(self._raw) - 1

    def close(self) -> None:
        """Calibrate after the last operation, if any came after the last
        calibration."""
        if self._raw and self._raw[-1][0] == len(self.kernel_s):
            self.calibrate()

    def seconds(self, index: int) -> float:
        before, wall = self._raw[index]
        k = self.kernel_s
        return wall * NOMINAL_S / ((k[before - 1] + k[before]) / 2)

    def median_kernel_s(self) -> float:
        return statistics.median(self.kernel_s)
