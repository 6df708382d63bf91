"""Fixed-step classical Runge-Kutta integration shared by all modules.

Grid knots are non-smooth points of EPCAG trajectories, so every caller
arranges its mesh to never step across a knot; this module only ever sees
smooth segments.
"""

import numpy as np

from .errors import BlowUpError, IntegrationFailureError

__all__ = ["rk4_segment", "rk4_final", "propagator"]


def _rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_segment(rhs, t0, y0, t1, n_steps, guard=None):
    """Integrate y' = rhs(t, y) from t0 to t1, storing every step.

    Returns (ts, ys, ds) with ts of length n_steps+1, ys stacked states
    and ds the stored derivatives rhs(t_j, y_j).  ``y0`` may carry any
    leading batch axes; ``rhs`` must broadcast accordingly.  t1 < t0
    integrates backward.
    """
    y = np.asarray(y0, dtype=float)
    if n_steps < 1:
        raise IntegrationFailureError("need at least one step")
    h = (t1 - t0) / n_steps
    ts = t0 + h * np.arange(n_steps + 1)
    ts[-1] = t1
    ys = np.empty((n_steps + 1,) + y.shape)
    ds = np.empty_like(ys)
    ys[0] = y
    ds[0] = rhs(t0, y)
    for j in range(n_steps):
        y = _rk4_step(rhs, ts[j], y, h)
        if guard is not None and not np.all(np.abs(y) < guard):
            raise BlowUpError(
                f"solution exceeded overflow guard {guard:g} at t={ts[j + 1]:g}",
                t=float(ts[j + 1]),
            )
        ys[j + 1] = y
        ds[j + 1] = rhs(ts[j + 1], y)
    return ts, ys, ds


def rk4_final(rhs, t0, y0, t1, n_steps, guard=None):
    """Like rk4_segment but returns only the final state."""
    y = np.asarray(y0, dtype=float)
    h = (t1 - t0) / n_steps
    t = t0
    for j in range(n_steps):
        y = _rk4_step(rhs, t, y, h)
        t = t0 + (j + 1) * h
        if guard is not None and not np.all(np.abs(y) < guard):
            raise BlowUpError(
                f"solution exceeded overflow guard {guard:g} at t={t:g}", t=float(t)
            )
    return y


def propagator(A, s, t, n_steps=None):
    """Fundamental matrix of Y' = A(tau) Y from s to t with Y(s) = I.

    ``A`` is an (n, n) array when constant, else a callable tau -> (n, n);
    ``n_steps`` RK4 steps default to max(4, ceil(256 |t - s|)).  A callable
    runs the step loop on the whole matrix (arithmetically identical to
    column-wise integration).  For an array one RK4 step of Y' = A Y is
    Y -> R(hA) Y with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so the
    n_steps steps are R(hA)^n_steps: R is built once by Horner's rule and
    raised to the power by repeated squaring, which equals the step loop
    to rounding.
    """
    constant = isinstance(A, np.ndarray)
    A0 = np.asarray(A if constant else A(s), dtype=float)
    n = A0.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if t == s:
        return np.eye(n)
    if n_steps is None:
        n_steps = max(4, int(np.ceil(abs(t - s) * 256)))
    if constant:
        Z = ((t - s) / n_steps) * A0
        eye = np.eye(n)
        R = eye + Z / 4.0
        for k in (3.0, 2.0, 1.0):
            R = eye + (Z / k) @ R
        return np.linalg.matrix_power(R, n_steps)

    def rhs(tau, Y):
        return np.asarray(A(tau), dtype=float) @ Y

    return rk4_final(rhs, s, np.eye(n), t, n_steps)
