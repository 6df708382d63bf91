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
    theta_{i+p} = theta_i + omega_bar, else None; ``pattern`` is then the
    p knots theta_0..theta_{p-1} it repeats, and knots beyond the stored
    ones follow from it.  A grid without a pattern is explicit.  A
    uniform grid is the one-knot pattern (offset,) with period step.
    ``gap_bound`` is the largest gap between consecutive knots (the
    constant usually called theta).  Immutable; safe for concurrent reads.
    """

    window: tuple[float, float]
    gap_bound: float
    periodic: tuple[int, float] | None
    knots: np.ndarray = field(repr=False)
    base_index: int = 0
    pattern: tuple[float, ...] | None = None

    def __post_init__(self):
        # a frozen copy, so the caller's array stays writable
        knots = np.array(self.knots, dtype=float)
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        d = np.diff(self.knots)
        if len(self.knots) < 2 or not np.all(d > 0):
            raise InvalidParameterError("grid knots must be strictly increasing")
        # a knot far from 0 is rounded to a few ulps of its size, not of the gap
        if np.max(d) > self.gap_bound * (1 + 1e-12) + 4 * np.spacing(np.abs(self.knots).max()):
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
        if self.pattern is not None:
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
        if self.pattern is not None:
            return make_periodic_grid(self.pattern, self.periodic[1], (lo, hi))
        if lo >= self.window[0] and hi <= self.window[1]:
            return self
        raise OutOfWindowError("explicit grid cannot be extended beyond its knots")


def _require_finite(what, values):
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError(f"{what} must be finite, got {values}")


def _period_range(lo, hi, per_period):
    """The first and last period k_lo..k_hi of a grid that covers a window
    whose ends lo and hi are given in periods, one spare period on each
    side, for ``per_period`` knots in each.

    The count is checked before any knot is made: a window that needs
    more than 10**7 knots is refused.
    """
    periods = hi - lo + 3  # within 2 of the count; finite only if lo and hi are
    if periods <= 10**7:
        periods = math.ceil(hi) - math.floor(lo) + 3
    if not periods * per_period <= 10**7:
        raise InvalidParameterError(
            f"the window needs {periods * per_period:.3g} knots, more than 10**7")
    return math.floor(lo) - 1, math.ceil(hi) + 1


def make_uniform_grid(step, offset=0.0, window=(0.0, 10.0)):
    """Grid theta_k = offset + k*step covering the window: the periodic
    grid of the one-knot pattern (offset,) with period step.

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
    return make_periodic_grid((offset,), step, (lo, hi))


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
    k_lo, k_hi = _period_range((lo - pattern[0]) / period, (hi - pattern[0]) / period, p)
    shifts = period * np.arange(k_lo, k_hi + 1, dtype=float)
    knots = (np.asarray(pattern) + shifts[:, None]).ravel()
    # the gaps of one period, the last one wrapping to the next period
    gaps = [b - a for a, b in zip(pattern, pattern[1:])] + [period - (pattern[-1] - pattern[0])]
    return ThetaGrid(
        window=(lo, hi),
        gap_bound=max(gaps),
        periodic=(p, period),
        knots=knots,
        base_index=k_lo * p,
        pattern=pattern,
    )
