"""Fixed-step classical Runge-Kutta integration shared by all modules.

Grid knots are non-smooth points of EPCAG trajectories, so every caller
arranges its mesh to never step across a knot; this module only ever sees
smooth segments.

A right-hand side that is affine in y, y' = A(t) y + g(t), is integrated
in closed form (Hairer, Norsett & Wanner, *Solving ODEs I*, on RK methods
for linear systems).  One RK4 step of it is the affine map

    y_{j+1} = M_j y_j + c_j,

whose M_j and c_j follow from the same stage polynomials in A and g at the
step's three stage times t_j, t_j + h/2 and t_j + h.  So A and g are
sampled once each at the 2n + 1 distinct stage times, the maps are built
by batched matrix products, and a doubling prefix scan composes them into
every step value, the final one included.  Only a right-hand side that
reads y in any other way runs the step loop.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, IntegrationFailureError

__all__ = ["Affine", "rk4_segment", "rk4_final", "propagator", "ScanPlan", "affine_scan",
           "sample_A"]


@dataclass(frozen=True)
class Affine:
    """The right-hand side y' = A(t) y + g(t).

    ``A`` is an (n, n) array when constant, else a callable of one time
    returning (n, n); a callable whose ``takes_time_arrays`` attribute is
    true is called once with the 1-D array of all stage times instead and
    returns (T, n, n).  ``g`` maps a 1-D array of T times to values that
    broadcast to (T,) + y.shape; None is g = 0.
    """

    A: object
    g: object = None


def _rk4_step(rhs, t, y, h, k1):
    """One RK4 step from (t, y), where k1 = rhs(t, y) is already known."""
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _increment(A_mid, A_end, h, k1, shift=0.0, g_mid=0.0, g_end=0.0):
    """h/6 (k1 + 2 k2 + 2 k3 + k4) of one RK4 step with the stages
    k2 = A_mid (shift + h/2 k1) + g_mid, k3 = A_mid (shift + h/2 k2) + g_mid
    and k4 = A_end (shift + h k3) + g_end.

    With k1 = A(t_j) and shift = I it is M_j - I; with k1 = g(t_j) and no
    shift it is c_j.
    """
    k2 = A_mid @ (shift + (0.5 * h) * k1) + g_mid
    k3 = A_mid @ (shift + (0.5 * h) * k2) + g_mid
    k4 = A_end @ (shift + h * k3) + g_end
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_matrix(A0, A_mid, A_end, h):
    """M_j of the RK4 steps; a single (n, n) matrix for a constant A."""
    eye = np.eye(A0.shape[-1])
    return eye + _increment(A_mid, A_end, h, A0, shift=eye)


def sample_A(A, times):
    """A at ``times`` as (T, n, n); a constant A is returned as it is."""
    if isinstance(A, np.ndarray):
        return np.asarray(A, dtype=float)
    if getattr(A, "takes_time_arrays", False):
        return np.asarray(A(times), dtype=float)
    return np.stack([np.asarray(A(t), dtype=float) for t in times])


def _affine_steps(rhs, t0, t1, n_steps, y_shape):
    """The step maps of n_steps RK4 steps of an ``Affine`` right-hand side.

    States are columns: y of shape y_shape holds r = size/n states, which
    the maps act on as an (n, r) matrix.  Returns the step times ``ts``,
    M (n_steps, n, n), c (n_steps, n, r) or None, and A and g at ``ts``
    (for the derivatives a stored trajectory keeps).
    """
    h = (t1 - t0) / n_steps
    ts = t0 + h * np.arange(n_steps + 1)
    ts[-1] = t1
    times = np.empty(2 * n_steps + 1)
    times[0::2] = ts
    times[1::2] = ts[:-1] + 0.5 * h
    A = sample_A(rhs.A, times)
    n = A.shape[-1]
    if A.ndim == 2:
        M = np.broadcast_to(_step_matrix(A, A, A, h), (n_steps, n, n))
        A_ts = A
        A_mid = A_end = A
    else:
        M = _step_matrix(A[0:-1:2], A[1::2], A[2::2], h)
        A_ts = A[0::2]
        A_mid, A_end = A[1::2], A[2::2]
    if rhs.g is None:
        return ts, M, None, A_ts, None
    r = int(np.prod(y_shape)) // n
    G = np.broadcast_to(rhs.g(times), (len(times),) + tuple(y_shape))
    G = G.reshape(len(times), r, n).transpose(0, 2, 1)
    c = _increment(A_mid, A_end, h, G[0:-1:2], g_mid=G[1::2], g_end=G[2::2])
    return ts, M, c, A_ts, G[0::2]


def _doubling(A):
    """Compose the maps A (n, d, d) in place by the doubling scan.

    A doubling scan (Blelloch 1990, "Prefix sums and their applications")
    composes n maps in log2(n) levels: at the level of stride s every
    A_j with j >= s becomes A_j A_{j-s}.  Before each level this yields
    s and the factors A[s:] of the level, which x_{j+1} = A_j x_j + b_j
    multiplies b by there (b_j += A_j b_{j-s}); they are valid until the
    next item.  A ends as the composed maps A_j ... A_0.
    """
    s = 1
    while s < len(A):
        yield s, A[s:]
        A[s:] = A[s:] @ A[:-s]
        s *= 2


def _scan_b(levels, A, b, x0, out):
    """Write x_1..x_n of the scan into ``out``: run ``levels``, the
    (s, factors) of each level, over b (None is b = 0), then add the
    composed maps ``A`` applied to x0.  Overwrites b."""
    # run through even for b = None: a one-pass scan composes A as it goes
    for s, M in levels:
        if b is not None:
            b[s:] += M @ b[:-s]
    np.matmul(A, x0, out=out)
    if b is not None:
        out += b


def _stored_level(M):
    """A copy of the factors ``M`` (k, d, d) of one level: one (d, d)
    matrix, which the matmul broadcasts, when the k are bitwise equal."""
    bits = M.reshape(len(M), M[0].size).view(np.uint64)
    if (bits[-1] == bits[0]).all() and (bits == bits[0]).all():
        return M[0].copy()
    return M.copy()


class ScanPlan:
    """The half of the doubling scan of x_{j+1} = A_j x_j + b_j that only
    depends on the maps A_j.

    Holds the factors of every level of ``_doubling`` and the composed
    maps A_j ... A_0 of the last, so ``apply`` runs only the b half and
    the final composed A @ x0, bit for bit as the scan in one pass does.
    A level whose factors are bitwise equal is held as one (d, d) matrix
    and broadcast: the maps of a constant coefficient on a uniform mesh
    repeat exactly, so nearly every level of theirs collapses.  Any other
    level is held as it is.  ``A`` (n, d, d) is composed in place and kept.
    """

    def __init__(self, A):
        self.levels = [(s, _stored_level(M)) for s, M in _doubling(A)]
        self.A = A

    def apply(self, b, x0, out):
        """Write x_1..x_n, x_0 = x0, into ``out``; ``b`` and ``out`` are
        (n, d, r), b = None is b = 0.  Overwrites b."""
        _scan_b(self.levels, self.A, b, x0, out)


def affine_scan(A, b, x0, out):
    """Write x_1..x_n of x_{j+1} = A_j x_j + b_j, x_0 = x0, into ``out``.

    ``A`` is (n, d, d), ``b`` and ``out`` are (n, d, r); b = None is
    b = 0.  The scan of a ``ScanPlan`` in one pass: each level's factors
    multiply b as they are formed, and none is kept.  Overwrites A and b.
    """
    _scan_b(_doubling(A), A, b, x0, out)


def _affine_trajectory(rhs, t0, y, t1, n_steps):
    """Step times, the step values as (n_steps + 1, n, r) columns, and the
    samples of ``_affine_steps``."""
    n = y.shape[-1]
    ts, M, c, A_ts, g_ts = _affine_steps(rhs, t0, t1, n_steps, y.shape)
    x0 = y.reshape(-1, n).T
    xs = np.empty((n_steps + 1,) + x0.shape)
    xs[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        affine_scan(np.array(M), c, x0, xs[1:])
    return ts, xs, A_ts, g_ts


def _rows(xs, y_shape):
    """(k, n, r) column states back to (k,) + y_shape."""
    return xs.transpose(0, 2, 1).reshape((len(xs),) + tuple(y_shape))


def _blow_up(guard, t):
    return BlowUpError(f"solution exceeded overflow guard {guard:g} at t={t:g}", t=float(t))


def _check_guard(ys, ts, guard):
    """Raise BlowUpError at the first step value not below ``guard``;
    ``ys`` stacks the step values along axis 0, in any layout."""
    bad = ~np.all(np.abs(ys[1:].reshape(len(ys) - 1, -1)) < guard, axis=1)
    if bad.any():
        raise _blow_up(guard, ts[int(np.argmax(bad)) + 1])


def rk4_segment(rhs, t0, y0, t1, n_steps, guard=None):
    """Integrate y' = rhs(t, y) from t0 to t1, storing every step.

    Returns (ts, ys, ds) with ts of length n_steps+1, ys stacked states
    and ds the stored derivatives rhs(t_j, y_j).  ``y0`` may carry any
    leading batch axes; ``rhs`` must broadcast accordingly, or be an
    ``Affine``, whose steps come from the prefix scan.  t1 < t0
    integrates backward.
    """
    y = np.asarray(y0, dtype=float)
    if n_steps < 1:
        raise IntegrationFailureError("need at least one step")
    if isinstance(rhs, Affine):
        ts, xs, A_ts, g_ts = _affine_trajectory(rhs, t0, y, t1, n_steps)
        ys = _rows(xs, y.shape)
        if guard is not None:
            _check_guard(ys, ts, guard)
        dx = A_ts @ xs
        if g_ts is not None:
            dx += g_ts
        return ts, ys, _rows(dx, y.shape)
    h = (t1 - t0) / n_steps
    ts = t0 + h * np.arange(n_steps + 1)
    ts[-1] = t1
    ys = np.empty((n_steps + 1,) + y.shape)
    ds = np.empty_like(ys)
    ys[0] = y
    ds[0] = rhs(t0, y)
    for j in range(n_steps):
        y = _rk4_step(rhs, ts[j], y, h, ds[j])
        if guard is not None and not np.all(np.abs(y) < guard):
            raise _blow_up(guard, ts[j + 1])
        ys[j + 1] = y
        ds[j + 1] = rhs(ts[j + 1], y)
    return ts, ys, ds


def rk4_final(rhs, t0, y0, t1, n_steps, guard=None):
    """Like rk4_segment but returns only the final state.

    An ``Affine`` right-hand side takes the last value of the prefix scan.
    """
    y = np.asarray(y0, dtype=float)
    if isinstance(rhs, Affine):
        _, xs, _, _ = _affine_trajectory(rhs, t0, y, t1, n_steps)
        if guard is not None:
            # the times the step loop below reports, t0 + (j + 1) h
            _check_guard(xs, t0 + ((t1 - t0) / n_steps) * np.arange(n_steps + 1), guard)
        return _rows(xs[-1:], y.shape)[0]
    h = (t1 - t0) / n_steps
    t = t0
    for j in range(n_steps):
        y = _rk4_step(rhs, t, y, h, rhs(t, y))
        t = t0 + (j + 1) * h
        if guard is not None and not np.all(np.abs(y) < guard):
            raise _blow_up(guard, t)
    return y


def propagator(A, s, t, n_steps=None):
    """Fundamental matrix of Y' = A(tau) Y from s to t with Y(s) = I.

    ``A`` is an (n, n) array when constant, else a callable tau -> (n, n)
    (see ``Affine`` for one that takes an array of times); ``n_steps``
    RK4 steps default to max(4, ceil(256 |t - s|)).  The result is the
    product M_{n-1} ... M_0 of the RK4 step matrices, which equals the
    step loop to rounding.  A callable is sampled once per distinct stage
    time and the product is the last value of the prefix scan.  For an
    array every step matrix is R(hA), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    built once and raised to the power by repeated squaring.
    """
    if n_steps is None:
        n_steps = max(4, int(np.ceil(abs(t - s) * 256)))
    if not isinstance(A, np.ndarray):
        if t == s:
            return np.eye(np.asarray(A(s)).shape[0])
        _, M, _, _, _ = _affine_steps(Affine(A), s, t, n_steps, (0,))
        out = np.empty(M.shape)
        affine_scan(np.array(M), None, np.eye(M.shape[-1]), out)
        return out[-1]
    A = np.asarray(A, dtype=float)
    if t == s or A.shape[0] == 0:
        return np.eye(A.shape[0])
    return np.linalg.matrix_power(_step_matrix(A, A, A, (t - s) / n_steps), n_steps)
