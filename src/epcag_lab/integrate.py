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
every step value.  Only a right-hand side that reads y in any other way
runs the step loop.

The final value alone keeps the paper's integral representation
y(t) = X(t, s) y(s) + int X(t, u) g(u) du exactly: it is

    y_N = Phi y_0 + sum_k W_k g(s_k),   Phi = M_{N-1} ... M_0,

over the 2N + 1 stage times s_k, with RK4 quadrature weights W_k that
depend only on A, the interval and the step count (``WeightPlan``).
``rk4_final`` takes it from the weights, so a caller that evaluates many
forcings or batches on one interval builds them once.  ``rk4_segment``
needs every step value, for the trajectory and for its overflow guard,
and keeps the scan; it is the one integrator that takes a guard.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, IntegrationFailureError, InvalidParameterError

__all__ = ["Affine", "rk4_segment", "rk4_final", "propagator", "ScanPlan", "WeightPlan",
           "affine_scan", "sample_A"]


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


def _step_maps(A, t0, t1, n_steps):
    """The stage samples and step maps of n_steps RK4 steps of y' = A(t) y.

    Returns the step ``h``, the step times ``ts``, the 2 n_steps + 1 stage
    times, A at the step times, the step midpoints and the step ends (one
    (n, n) array each when A is constant), and M (n_steps, n, n).
    """
    h = (t1 - t0) / n_steps
    ts = t0 + h * np.arange(n_steps + 1)
    ts[-1] = t1
    times = np.empty(2 * n_steps + 1)
    times[0::2] = ts
    times[1::2] = ts[:-1] + 0.5 * h
    A = sample_A(A, times)
    n = A.shape[-1]
    if A.ndim == 2:
        M = np.broadcast_to(_step_matrix(A, A, A, h), (n_steps, n, n))
        return h, ts, times, (A, A, A), M
    M = _step_matrix(A[0:-1:2], A[1::2], A[2::2], h)
    return h, ts, times, (A[0::2], A[1::2], A[2::2]), M


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


class WeightPlan:
    """The unguarded RK4 final value of ``Affine(A, g)`` from t0 to t1 in
    N = n_steps steps, as a quadrature over the 2N + 1 stage times s_k:

        y_N = Phi y_0 + sum_k W_k g(s_k),   Phi = M_{N-1} ... M_0.

    Step j adds c_j = K0_j g(t_j) + Kmid_j g(t_j + h/2) + Kend_j g(t_j + h),
    where the K are the ``_increment`` of a unit k1, g_mid or g_end, and
    the suffix product P_j = M_{N-1} ... M_{j+1} carries c_j to t1.  So
    W_{2j} gets P_j K0_j, W_{2j+1} = P_j Kmid_j and W_{2j+2} gets
    P_j Kend_j, summed where two steps meet.  Phi and W (2N + 1, n, n)
    depend only on A and ``span`` = (t0, t1, N), not on g or y_0.
    """

    def __init__(self, A, t0, t1, n_steps):
        self.span = (t0, t1, n_steps)
        h, _, self.times, (_, A_mid, A_end), M = _step_maps(A, t0, t1, n_steps)
        n = M.shape[-1]
        # the scan of the reversed, transposed maps composes at j the
        # transpose of M_{N-1} ... M_{N-1-j}: P_{N-2-j} for j < N - 1, then Phi
        R = np.array(M[::-1].transpose(0, 2, 1))
        for _ in _doubling(R):
            pass
        self.Phi = R[-1].T
        P = np.concatenate([R[-2::-1], np.eye(n)[None]]).transpose(0, 2, 1)
        unit, zero = np.eye(n), np.zeros((n, n))
        K = _increment(A_mid, A_end, h, np.hstack([unit, zero, zero]),
                       g_mid=np.hstack([zero, unit, zero]),
                       g_end=np.hstack([zero, zero, unit]))
        PK = P @ K  # [P_j K0_j | P_j Kmid_j | P_j Kend_j]
        self.W = np.zeros((2 * n_steps + 1, n, n))
        self.W[0:-1:2] = PK[..., :n]
        self.W[1::2] = PK[..., n:2 * n]
        self.W[2::2] += PK[..., 2 * n:]

    def apply(self, g, y):
        """The final value from the states ``y`` (..., n) under the forcing
        g (see ``Affine``; None is g = 0).  Row r of the result reads only
        row r of y and of g's values, so its value does not depend on the
        batch; its last bits may, since the sums run in an order that
        depends on the number of rows, and a row evaluated alone can differ
        by an ulp from the same row in a batch.  Equal calls give equal
        bits."""
        n = self.Phi.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            out = y.reshape(-1, n) @ self.Phi.T
            if g is not None:
                G = np.broadcast_to(g(self.times), self.times.shape + y.shape)
                G = G.reshape(len(self.times), -1, n)
                # one einsum per weight entry, whose loop runs over the rows:
                # a single einsum over (k, b) runs its loop over b, slowly
                for a, b in np.ndindex(n, n):
                    out[:, a] += np.einsum("k,km->m", self.W[:, a, b], G[:, :, b])
        return out.reshape(y.shape)


def _rows(xs, y_shape):
    """(k, n, r) column states back to (k,) + y_shape."""
    return xs.transpose(0, 2, 1).reshape((len(xs),) + tuple(y_shape))


def _blow_up(guard, t):
    return BlowUpError(f"solution exceeded overflow guard {guard:g} at t={t:g}", t=float(t))


def rk4_segment(rhs, t0, y0, t1, n_steps, guard=None):
    """Integrate y' = rhs(t, y) from t0 to t1, storing every step.

    Returns (ts, ys, ds) with ts of length n_steps+1, ys stacked states
    and ds the stored derivatives rhs(t_j, y_j).  ``y0`` may carry any
    leading batch axes; ``rhs`` must broadcast accordingly, or be an
    ``Affine``, whose steps come from the prefix scan.  t1 < t0
    integrates backward.  With a ``guard``, the first step value not
    below it in absolute value raises BlowUpError at its step time.
    """
    y = np.asarray(y0, dtype=float)
    if n_steps < 1:
        raise IntegrationFailureError("need at least one step")
    if isinstance(rhs, Affine):
        # states are columns: y holds r = size/n states, which the step
        # maps act on as an (n, r) matrix
        h, ts, times, (A_ts, A_mid, A_end), M = _step_maps(rhs.A, t0, t1, n_steps)
        n = y.shape[-1]
        x0 = y.reshape(-1, n).T
        c = None
        if rhs.g is not None:
            G = np.broadcast_to(rhs.g(times), times.shape + y.shape)
            G = G.reshape(len(times), -1, n).transpose(0, 2, 1)
            c = _increment(A_mid, A_end, h, G[0:-1:2], g_mid=G[1::2], g_end=G[2::2])
        xs = np.empty((n_steps + 1,) + x0.shape)
        xs[0] = x0
        with np.errstate(over="ignore", invalid="ignore"):
            affine_scan(np.array(M), c, x0, xs[1:])
        ys = _rows(xs, y.shape)
        if guard is not None:
            bad = ~np.all(np.abs(ys[1:].reshape(n_steps, -1)) < guard, axis=1)
            if bad.any():
                raise _blow_up(guard, ts[int(np.argmax(bad)) + 1])
        dx = A_ts @ xs
        if rhs.g is not None:
            dx += G[0::2]
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


def rk4_final(rhs, t0, y0, t1, n_steps, plan=None):
    """The final state of the RK4 steps of rk4_segment, with no guard.

    An ``Affine`` right-hand side takes it from the stage weights of
    ``plan``, a ``WeightPlan`` built for (t0, t1, n_steps), or of a new
    one when none is given (equal to the scan's last step value to
    rounding); any other runs the RK4 step loop.  A caller that needs
    the overflow guard takes ``rk4_segment``.
    """
    y = np.asarray(y0, dtype=float)
    if plan is not None and (not isinstance(rhs, Affine) or plan.span != (t0, t1, n_steps)):
        raise InvalidParameterError(
            f"a weight plan over {plan.span} does not fit an affine final value "
            f"over {(t0, t1, n_steps)}")
    if isinstance(rhs, Affine):
        if plan is None:
            plan = WeightPlan(rhs.A, t0, t1, n_steps)
        return plan.apply(rhs.g, y)
    h = (t1 - t0) / n_steps
    t = t0
    for j in range(n_steps):
        y = _rk4_step(rhs, t, y, h, rhs(t, y))
        t = t0 + (j + 1) * h
    return y


def propagator(A, s, t, n_steps=None):
    """Fundamental matrix of Y' = A(tau) Y from s to t with Y(s) = I.

    ``A`` is an (n, n) array when constant, else a callable tau -> (n, n)
    (see ``Affine`` for one that takes an array of times); ``n_steps``
    RK4 steps default to max(4, ceil(256 |t - s|)).  The result is the
    product M_{n-1} ... M_0 of the RK4 step matrices, which equals the
    step loop to rounding.  A callable is sampled once per distinct stage
    time and the product is the last map that the doubling scan of the
    step matrices composes.  For an array every step matrix is R(hA),
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, built once and raised to the
    power by repeated squaring.
    """
    if n_steps is None:
        n_steps = max(4, int(np.ceil(abs(t - s) * 256)))
    if not isinstance(A, np.ndarray):
        if t == s:
            return np.eye(np.asarray(A(s)).shape[0])
        M = np.array(_step_maps(A, s, t, n_steps)[-1])
        for _ in _doubling(M):
            pass
        return M[-1]
    A = np.asarray(A, dtype=float)
    if t == s or A.shape[0] == 0:
        return np.eye(A.shape[0])
    return np.linalg.matrix_power(_step_matrix(A, A, A, (t - s) / n_steps), n_steps)
