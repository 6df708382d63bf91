"""Integral manifolds by successive approximation of the integral equations.

The contracting-side manifold is the graph v = F(t, u) where F(t0, c) is
the v-component at t0 of the fixed point of

    u(t) = Uprop(t, t0) c + int_{t0}^t Uprop(t, s) g_plus(s, z(s), z(beta(s))) ds,
    v(t) = -int_t^inf Vprop(t, s) g_minus(s, z(s), z(beta(s))) ds,

iterated from zero.  The improper integral is truncated at a horizon
chosen so the neglected tail stays below the stop tolerance, the
iteration history is instrumented (per-iterate decay certificates and
sup-norm contraction ratios), and the derivative of F in c is obtained
from the variational integral system with coefficients frozen along the
converged trajectory.  Every evaluation anchors t0 at a grid knot so the
frozen argument never refers to times before the mesh.

Both the fixed point and the variational system are iterated by
``_quadrature.IntegralOperator`` on the horizon window; this module only
chooses the window and the integrand and derives the certificates from
the sweeps the operator yields.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._quadrature import IntegralOperator
from .errors import ConditionError, EpcagError, InvalidParameterError
from .expressions import raise_at_first_nonfinite
from .linear import check_smallness
from .solver import solve_forward
from .system import state_vector

__all__ = [
    "ManifoldParams",
    "PicardResult",
    "ManifoldFn",
    "picard_stable",
    "picard_unstable",
    "jacobian_F",
    "invariance_check",
    "off_manifold_diagnose",
]


@dataclass(frozen=True)
class ManifoldParams:
    """Knobs of the successive-approximation engine.

    ``alpha`` defaults to sigma/2 and ``eps`` to K.  ``tol`` is the stop
    tolerance and also the largest |g(t,0,0)| accepted on the mesh.  The
    decay-class constant N is (K+eps)*||c|| per evaluation, the bound the
    constructed solution actually satisfies; unless ``horizon`` is given,
    the horizon is enlarged until the truncated tail estimate
    K*N*exp(-sigma*T)/sigma drops below ``tol``.
    """

    alpha: float | None = None
    eps: float | None = None
    tol: float = 1e-8
    max_iter: int = 80
    horizon: float | None = None
    substeps: int = 64

    def resolve(self, K, sigma):
        alpha = self.alpha if self.alpha is not None else sigma / 2.0
        eps = self.eps if self.eps is not None else K
        if not 0 < alpha < sigma:
            raise InvalidParameterError(f"alpha must lie in (0, sigma), got {alpha}")
        if eps <= 0:
            raise InvalidParameterError("eps must be positive")
        if not 0 < self.tol < math.inf:
            raise InvalidParameterError(f"tol must be positive and finite, got {self.tol}")
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise InvalidParameterError(f"horizon must be positive and finite, got {self.horizon}")
        return alpha, eps


@dataclass
class PicardResult:
    """Converged iteration with its certificates."""

    side: str
    t0: float
    c: np.ndarray
    ts: np.ndarray
    zs: np.ndarray
    f_value: np.ndarray
    iterations: int
    converged: bool
    sup_changes: list
    contraction_ratios: list
    observed_contraction: float | None
    decay_margins: list
    decay_ok: bool
    horizon: float
    in_contraction_regime: bool
    smallness: object


def _operator(red, side, t0, horizon, substeps):
    """Integral operator on [t0, t0+horizon] (stable side) or on the knot
    window ending at t0 that covers the horizon (unstable side)."""
    grid = red.spec.grid
    if side == "stable":
        lo, hi = t0, t0 + horizon
    else:
        j = grid.interval_index(t0 - horizon)
        lo, hi = grid.knot(j), t0
    win = grid.window
    if lo < win[0] or hi > win[1]:
        raise InvalidParameterError(
            f"horizon mesh [{lo:g}, {hi:g}] leaves the working window "
            f"{win}; enlarge the window or shrink the horizon"
        )
    return IntegralOperator(red, grid, lo, hi, substeps)


def _resolve_horizon(params, K, sigma, N, theta):
    if params.horizon is not None:
        T = params.horizon
    else:
        N = max(N, params.tol)
        T = max(
            math.log(max(K * N / params.tol, 2.0)),
            math.log(max(K * N / (sigma * params.tol), 2.0)),
        ) / sigma
    T = max(T, 2.0 * theta)
    # whole multiples of the gap bound: on a uniform grid the stable-side
    # window [t0, t0 + T] then ends on a knot, with no partial interval
    return theta * math.ceil(T / theta - 1e-12)


def _snap_to_knot(grid, t0):
    idx = grid.nearest_knot_index(t0)
    if idx is None:
        raise InvalidParameterError(
            f"t0={t0} must be a grid knot: the frozen argument of mesh points "
            "just above t0 would otherwise lie before the mesh"
        )
    return grid.knot(idx)


def _anchor(red, side, c):
    return state_vector(c, red.k if side == "stable" else red.m, "anchor c")


def _run_picard(red, side, t0, c, params, initial=None):
    grid = red.spec.grid
    theta = grid.gap_bound
    K, sigma = red.K, red.sigma
    alpha, eps = params.resolve(K, sigma)
    c = _anchor(red, side, c)
    t0 = _snap_to_knot(grid, t0)
    cnorm = float(np.linalg.norm(c))
    horizon = _resolve_horizon(params, K, sigma, (K + eps) * cnorm, theta)
    op = _operator(red, side, t0, horizon, params.substeps)
    ts = op.mesh.ts
    k, m = red.k, red.m
    n = k + m

    zero = np.zeros((len(ts), n))
    g_origin = raise_at_first_nonfinite(red.g, red.g(ts, zero, zero), ts, zero, zero)
    worst0 = float(np.max(np.abs(g_origin))) if n else 0.0
    if worst0 > params.tol:
        raise ConditionError(
            f"nonlinearity does not vanish at the origin: max |g(t,0,0)| = "
            f"{worst0:.3g} > {params.tol:.3g}; the manifold construction requires "
            "f(t,0,0) = 0 (use the bounded-solution engine otherwise)"
        )

    smallness = check_smallness(K, sigma, alpha, theta, red.L, eps)

    u_init = c if side == "stable" else np.zeros(k)
    v_init = np.zeros(m) if side == "stable" else c
    decay_bound = (K + eps) * cnorm * np.exp(-alpha * np.abs(ts - t0))

    def decay_margin(z):
        return float(np.max(np.linalg.norm(z, axis=1) - decay_bound))

    if initial is None:
        # g(t,0,0) = 0, so the first approximation from the zero function
        # is the homogeneous flow of the anchor value
        z = op.apply(np.zeros((len(op.points), n)), u_init, v_init)
    else:
        z = np.asarray(initial, dtype=float)
        if z.shape != (len(ts), n):
            raise InvalidParameterError(
                f"initial iterate must have shape {(len(ts), n)}"
            )

    decay_margins = [decay_margin(z)]
    sup_changes = []
    ratios = []
    for z, d in op.iterate(red.g, z, u_init, v_init, params.tol, params.max_iter):
        if sup_changes and sup_changes[-1] > 0:
            ratios.append(d / sup_changes[-1])
        sup_changes.append(d)
        decay_margins.append(decay_margin(z))

    f_value = z[0, k:] if side == "stable" else z[-1, :k]
    return PicardResult(
        side=side, t0=t0, c=c, ts=ts, zs=z, f_value=f_value.copy(),
        iterations=len(sup_changes), converged=True, sup_changes=sup_changes,
        contraction_ratios=ratios,
        observed_contraction=max(ratios) if ratios else None,
        decay_margins=decay_margins,
        decay_ok=all(mg <= 10.0 * params.tol for mg in decay_margins),
        horizon=horizon, in_contraction_regime=smallness.all_hold,
        smallness=smallness,
    )


def picard_stable(red, t0, c, params=None, initial=None):
    """Fixed point defining F(t0, c); trajectory lives on [t0, t0+horizon]."""
    return _run_picard(red, "stable", t0, c, params or ManifoldParams(), initial)


def picard_unstable(red, t0, c_minus, params=None, initial=None):
    """Mirror construction on [t0-horizon, t0] for the expanding side."""
    return _run_picard(red, "unstable", t0, c_minus, params or ManifoldParams(),
                       initial)


def _fd_coefficients(red, ts, z, zb):
    """Central-difference Jacobians of g along a trajectory.

    Returns (Dz, Dw) of shape (M, n, n).  A coarse continuity probe
    compares quotients at step h and h/2 at the first, middle and last
    mesh points; disagreement beyond 1e-3 relative means the nonlinearity
    is not C1 there.
    """
    n = z.shape[1]
    M = z.shape[0]
    s = 1e-6 * (1.0 + np.linalg.norm(z, axis=1) + np.linalg.norm(zb, axis=1))
    Dz = np.empty((M, n, n))
    Dw = np.empty((M, n, n))
    for k in range(n):
        e = np.zeros_like(z)
        e[:, k] = s
        Dz[:, :, k] = (red.g(ts, z + e, zb) - red.g(ts, z - e, zb)) / (2.0 * s[:, None])
        Dw[:, :, k] = (red.g(ts, z, zb + e) - red.g(ts, z, zb - e)) / (2.0 * s[:, None])
    for j in np.linspace(0, M - 1, 3, dtype=int):
        for k in range(n):
            e = np.zeros(n)
            e[k] = 0.5 * s[j]
            half = (red.g(ts[j], z[j] + e, zb[j]) - red.g(ts[j], z[j] - e, zb[j])) / s[j]
            if np.any(np.abs(half - Dz[j, :, k]) > 1e-3 * (1.0 + np.abs(Dz[j, :, k]))):
                raise ConditionError(
                    f"difference quotients of the nonlinearity oscillate at "
                    f"t={ts[j]:g}: continuous differentiability is in doubt"
                )
    return Dz, Dw


def jacobian_F(manifold, t0, c, max_iter=120):
    """Derivative of the manifold function in c via the variational system.

    Solves the linear integral equations with coefficients frozen along
    the converged trajectory by the same truncated panel scheme; column
    j is the response to the unit direction e_j.  The iteration stops at
    the manifold's own ``params.tol``.
    """
    red = manifold.red
    res = manifold.evaluate(t0, c)
    k, m = red.k, red.m
    n = k + m
    ncols = k if manifold.side == "stable" else m
    if ncols == 0 or n == 0:
        return np.zeros((m if manifold.side == "stable" else k, ncols))
    op = _operator(red, manifold.side, res.t0, res.horizon, manifold.params.substeps)

    # coefficients at the operator's integrand points: along the
    # trajectory, plus left-limit versions at the closing point of every
    # knot interval (the frozen argument is two-valued at knots)
    Dz, Dw = _fd_coefficients(red, op.points, *op.arguments(res.zs))

    if manifold.side == "stable":
        u_init = np.eye(k)
        v_init = np.zeros((m, k))
    else:
        u_init = np.zeros((k, m))
        v_init = np.eye(m)

    W = op.apply(np.zeros((len(op.points), n, ncols)), u_init, v_init)
    for W, _d in op.iterate(lambda _t, W, Wb: Dz @ W + Dw @ Wb, W, u_init, v_init,
                            manifold.params.tol, max_iter):
        pass
    if manifold.side == "stable":
        return W[0, k:, :].copy()
    return W[-1, :k, :].copy()


class ManifoldFn:
    """Memoized evaluator c -> F(t0, c) backed by the iteration engine.

    Evaluations for distinct keys are independent.  Keys are (t0 snapped
    to its knot, c rounded to 1e-12).
    """

    def __init__(self, red, side="stable", params=None):
        if side not in ("stable", "unstable"):
            raise InvalidParameterError("side must be 'stable' or 'unstable'")
        self.red = red
        self.side = side
        self.params = params or ManifoldParams()
        self._memo = {}
        self._jac_memo = {}

    def _key(self, t0, c):
        t0 = _snap_to_knot(self.red.spec.grid, t0)
        c = _anchor(self.red, self.side, c)
        return (t0, tuple(int(round(x * 1e12)) for x in c))

    def evaluate(self, t0, c):
        key = self._key(t0, c)
        if key not in self._memo:
            self._memo[key] = _run_picard(self.red, self.side, t0, c, self.params)
        return self._memo[key]

    def value(self, t0, c):
        return self.evaluate(t0, c).f_value

    def jacobian(self, t0, c):
        key = self._key(t0, c)
        if key not in self._jac_memo:
            self._jac_memo[key] = jacobian_F(self, t0, c)
        return self._jac_memo[key]


@dataclass
class InvarianceReport:
    max_deviation: float
    times: np.ndarray
    deviations: np.ndarray


def invariance_check(manifold, t0, c, T):
    """Forward-integrate from the manifold and re-evaluate F at each knot.

    Small max deviation ||v(t) - F(t, u(t))|| certifies numerically that
    the graph is an integral surface.
    """
    if manifold.side != "stable":
        raise InvalidParameterError("invariance check runs on the stable side")
    red = manifold.red
    res = manifold.evaluate(t0, c)
    rspec = red.reduced_spec()
    z0 = np.concatenate([res.c, res.f_value])
    path = solve_forward(rspec, res.t0, z0, res.t0 + T)
    tk, zk = path.at_knots()
    devs = []
    for tau, zval in zip(tk, zk):
        u = zval[: red.k]
        v = zval[red.k:]
        devs.append(float(np.linalg.norm(v - manifold.value(tau, u))))
    devs = np.asarray(devs)
    return InvarianceReport(max_deviation=float(np.max(devs)), times=tk,
                            deviations=devs)


@dataclass
class GrowthReport:
    cone_entry_time: float | None
    bound_ok_after_entry: bool | None
    bound_margin: float | None
    pre_entry_contraction_ok: bool | None
    growth_exponent: float | None
    times: np.ndarray
    u_norms: np.ndarray
    v_norms: np.ndarray
    overflow_divergence: bool


def off_manifold_diagnose(red, t0, z0, T, params=None, manifold=None):
    """Growth diagnosis for a start off the contracting-side manifold.

    Reports the first knot where the cone ||u|| <= K^2 ||v|| is entered,
    whether the exponential lower bound

        ||v(t)|| >= (||v0||/K) * exp((sigma - K*L*(1+K^2)*(1+e^{alpha*theta})) (t-t0))

    holds at sampled knots after entry, and the growth exponent fitted to
    log||v|| by least squares.  Overflow of the forward solve (past
    solve_forward's guard 1e12) is reported as confirmed divergence.
    """
    params = params or ManifoldParams()
    K, sigma = red.K, red.sigma
    theta = red.spec.grid.gap_bound
    alpha, eps = params.resolve(K, sigma)
    sm = check_smallness(K, sigma, alpha, theta, red.L, eps)
    if not sm["cone_trapping"].holds:
        raise ConditionError(
            "cone-trapping condition K(K^2+1)(1+e^(alpha theta))L < sigma fails; "
            "the growth estimates do not apply"
        )
    z0 = state_vector(z0, red.n, "z0")
    u0, v0 = z0[: red.k], z0[red.k:]
    manifold = manifold or ManifoldFn(red, "stable", params)
    t0 = _snap_to_knot(red.spec.grid, t0)
    off = float(np.linalg.norm(v0 - manifold.value(t0, u0)))
    if off <= 10.0 * params.tol:
        raise InvalidParameterError(
            f"z0 lies on the manifold within tolerance (offset {off:.3g})"
        )

    rspec = red.reduced_spec()
    overflow = False
    t_hi = t0 + T
    try:
        path = solve_forward(rspec, t0, z0, t_hi)
    except EpcagError as exc:
        blow_t = getattr(exc, "t", None)
        if blow_t is None:
            raise
        overflow = True
        t_hi = max(t0 + theta, red.spec.grid.beta(blow_t) - theta)
        path = solve_forward(rspec, t0, z0, t_hi, guard=None)

    tk, zk = path.at_knots()
    u_norms = np.linalg.norm(zk[:, : red.k], axis=1)
    v_norms = np.linalg.norm(zk[:, red.k:], axis=1)

    inside = u_norms <= K ** 2 * v_norms + 1e-15
    entry_pos = int(np.argmax(inside)) if np.any(inside) else None
    cone_entry_time = float(tk[entry_pos]) if entry_pos is not None else None

    lam = sigma - K * red.L * (1.0 + K ** 2) * (1.0 + math.exp(alpha * theta))
    bound_ok = bound_margin = None
    growth_exponent = None
    v0n = float(np.linalg.norm(v0))
    if entry_pos is not None and v0n > 0:
        after = slice(entry_pos, None)
        lower = (v0n / K) * np.exp(lam * (tk[after] - t0)) * (1.0 - 1e-3)
        bound_ok = bool(np.all(v_norms[after] >= lower))
        bound_margin = float(np.min(v_norms[after] - lower))
        pos = v_norms[after] > 0
        if np.count_nonzero(pos) >= 2:
            tt = tk[after][pos]
            A = np.stack([tt - t0, np.ones_like(tt)], axis=1)
            growth_exponent = float(np.linalg.lstsq(A, np.log(v_norms[after][pos]),
                                                    rcond=None)[0][0])

    pre_ok = None
    if entry_pos is not None and entry_pos > 0:
        rate = sigma - 2.0 * K * red.L * (1.0 + math.exp(alpha * theta))
        ub = K * np.linalg.norm(u0) * np.exp(-rate * (tk[:entry_pos] - t0))
        pre_ok = bool(np.all(u_norms[:entry_pos] <= ub * (1.0 + 1e-3) + 1e-15))

    return GrowthReport(
        cone_entry_time=cone_entry_time,
        bound_ok_after_entry=bound_ok,
        bound_margin=bound_margin,
        pre_entry_contraction_ok=pre_ok,
        growth_exponent=growth_exponent,
        times=tk, u_norms=u_norms, v_norms=v_norms,
        overflow_divergence=overflow,
    )
