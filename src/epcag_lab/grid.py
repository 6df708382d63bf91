"""Knot grids and the piecewise constant identification function.

A grid holds a strictly increasing sequence of knots theta_i with bounded
gaps over a finite working window.  The identification function ``beta``
maps a time t to the left endpoint of the knot interval containing it:

    beta(t) = theta_i   for   theta_i <= t < theta_{i+1}.

On the uniform grid 0, 1, 2, ... beta is the greatest-integer function.
Queries outside the working window raise ``OutOfWindowError`` rather than
extrapolating.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, OutOfWindowError

__all__ = [
    "ThetaGrid",
    "make_uniform_grid",
    "make_explicit_grid",
    "make_periodic_grid",
]


@dataclass(frozen=True)
class ThetaGrid:
    """Strictly increasing knot sequence over a working window.

    ``periodic`` is ``(p, omega_bar)`` when the grid repeats with
    theta_{i+p} = theta_i + omega_bar, else None.  ``gap_bound`` is the
    largest gap between consecutive knots (the constant usually called
    theta).  Immutable; safe for concurrent reads.
    """

    kind: str
    window: tuple[float, float]
    gap_bound: float
    periodic: tuple[int, float] | None
    knots: np.ndarray = field(repr=False)
    base_index: int = 0
    # generator parameters, kind-dependent
    step: float | None = None
    offset: float | None = None
    pattern: tuple[float, ...] | None = None

    def __post_init__(self):
        # a frozen copy, so the caller's array stays writable
        knots = np.array(self.knots, dtype=float)
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        d = np.diff(self.knots)
        if len(self.knots) < 2 or not np.all(d > 0):
            raise InvalidParameterError("grid knots must be strictly increasing")
        if np.max(d) > self.gap_bound * (1 + 1e-12):
            raise InvalidParameterError("grid gap exceeds declared gap bound")

    # -- lookups -------------------------------------------------------

    def _check_window(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.window
        if np.any(t < lo) or np.any(t > hi):
            bad = t[(t < lo) | (t > hi)] if t.ndim else t
            raise OutOfWindowError(
                f"t={bad} outside working window [{lo}, {hi}]"
            )
        return t

    def _positions(self, t):
        # left-closed lookup: position i with knots[i] <= t < knots[i+1]
        pos = np.searchsorted(self.knots, t, side="right") - 1
        if np.any(pos < 0) or np.any(pos >= len(self.knots) - 1):
            raise OutOfWindowError("query not bracketed by represented knots")
        return pos

    def beta(self, t):
        """Left knot of the interval containing t.  Scalar or array."""
        t = self._check_window(t)
        vals = self.knots[self._positions(t)]
        return float(vals) if vals.ndim == 0 else vals

    def interval_index(self, t):
        """Index i with theta_i <= t < theta_{i+1} (consistent with beta)."""
        t = self._check_window(t)
        idx = self._positions(t) + self.base_index
        return int(idx) if idx.ndim == 0 else idx

    def knot(self, i):
        """Value of theta_i by global index."""
        j = i - self.base_index
        if 0 <= j < len(self.knots):
            return float(self.knots[j])
        if self.kind == "uniform":
            return self.offset + i * self.step
        if self.kind == "periodic-pattern":
            p, obar = self.periodic
            return self.pattern[i % p] + (i // p) * obar
        raise OutOfWindowError(f"knot index {i} outside represented range")

    def nearest_knot_index(self, t):
        """Global index of the knot equal to t within 1e-9 relative, else None."""
        if not math.isfinite(t):
            return None  # the relative tolerance would be infinite
        pos = int(np.argmin(np.abs(self.knots - t)))
        if abs(self.knots[pos] - t) <= 1e-9 * (1.0 + abs(t)):
            return pos + self.base_index
        return None

    # -- derived grids -------------------------------------------------

    def extended(self, window):
        """Same generator over a (usually larger) working window.

        Explicit grids cannot be extended beyond their knots.
        """
        lo, hi = float(window[0]), float(window[1])
        if self.kind == "uniform":
            return make_uniform_grid(self.step, self.offset, (lo, hi))
        if self.kind == "periodic-pattern":
            return make_periodic_grid(self.pattern, self.periodic[1], (lo, hi))
        if lo >= self.window[0] and hi <= self.window[1]:
            return self
        raise OutOfWindowError("explicit grid cannot be extended beyond its knots")


def _require_finite(what, values):
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError(f"{what} must be finite, got {values}")


def make_uniform_grid(step, offset=0.0, window=(0.0, 10.0)):
    """Grid theta_k = offset + k*step covering the window.

    The gap bound is the step and the grid is 1-periodic with period step.
    """
    step, offset = float(step), float(offset)
    lo, hi = float(window[0]), float(window[1])
    _require_finite("step", step)
    _require_finite("offset", offset)
    _require_finite("window", [lo, hi])
    if step <= 0:
        raise InvalidParameterError(f"step must be positive, got {step}")
    if not lo < hi:
        raise InvalidParameterError("window must be a nonempty interval")
    k_lo = math.floor((lo - offset) / step) - 1
    k_hi = math.ceil((hi - offset) / step) + 1
    knots = offset + step * np.arange(k_lo, k_hi + 1, dtype=float)
    return ThetaGrid(
        kind="uniform",
        window=(lo, hi),
        gap_bound=step,
        periodic=(1, step),
        knots=knots,
        base_index=k_lo,
        step=step,
        offset=offset,
    )


def make_explicit_grid(knots):
    """Grid from an explicit knot list; the window is [first, last)."""
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or len(knots) < 2:
        raise InvalidParameterError("need at least two knots")
    _require_finite("knots", knots)
    gaps = np.diff(knots)
    if not np.all(gaps > 0):
        raise InvalidParameterError("knots must be strictly increasing")
    return ThetaGrid(
        kind="explicit",
        window=(float(knots[0]), float(knots[-1])),
        gap_bound=float(np.max(gaps)),
        periodic=None,
        knots=knots,
    )


def make_periodic_grid(pattern, period, window=(0.0, 10.0)):
    """Grid repeating a knot pattern with theta_{i+p} = theta_i + period."""
    pattern = tuple(float(x) for x in pattern)
    period = float(period)
    lo, hi = float(window[0]), float(window[1])
    p = len(pattern)
    if p == 0:
        raise InvalidParameterError("pattern must be nonempty")
    _require_finite("pattern", pattern)
    _require_finite("period", period)
    _require_finite("window", [lo, hi])
    if period <= 0:
        raise InvalidParameterError("period must be positive")
    if any(pattern[j] >= pattern[j + 1] for j in range(p - 1)):
        raise InvalidParameterError("pattern must be strictly increasing")
    if pattern[-1] - pattern[0] >= period:
        raise InvalidParameterError("pattern span must be less than the period")
    if not lo < hi:
        raise InvalidParameterError("window must be a nonempty interval")
    k_lo = math.floor((lo - pattern[0]) / period) - 1
    k_hi = math.ceil((hi - pattern[0]) / period) + 1
    knots = np.concatenate(
        [np.asarray(pattern) + k * period for k in range(k_lo, k_hi + 1)]
    )
    gaps = np.diff(knots)
    return ThetaGrid(
        kind="periodic-pattern",
        window=(lo, hi),
        gap_bound=float(np.max(gaps)),
        periodic=(p, period),
        knots=knots,
        base_index=k_lo * p,
        pattern=pattern,
    )
