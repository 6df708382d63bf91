"""Bounded-on-the-line and periodic solutions of the reduced system.

The unique bounded solution solves

    u(t) =  int_{-inf}^t Uprop(t, s) g_plus(s, z(s), z(beta(s))) ds,
    v(t) = -int_t^{+inf} Vprop(t, s) g_minus(s, z(s), z(beta(s))) ds,

iterated from the zero function under ||g(t,0,0)|| <= H and the
contraction condition 2*K*L/sigma < 1; the limit obeys
||z|| <= 2*K*H/(sigma - 2*K*L).  Both improper integrals are truncated:
the working window is enlarged by the horizon on each side and the
recursions start from zero at the enlarged edges, so every point of the
original window has at least a full horizon of quadrature support.
The iteration runs on ``_quadrature.IntegralOperator`` over the enlarged
window, with its sup-norm stop rule restricted to the original window.

When the coefficients share a period omega and the grid repeats with
period omega_bar, a rational ratio omega/omega_bar = k/m makes every
iterate (hence the limit) m*omega-periodic; the shift residual is
measured directly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._quadrature import IntegralOperator
from .errors import ConditionError, InvalidParameterError
from .expressions import raise_at_first_nonfinite

__all__ = [
    "SteadyParams",
    "BoundedSolveResult",
    "PeriodicityParams",
    "PeriodicSolveResult",
    "bounded_solution",
    "periodicity_params",
    "periodic_solution",
]


@dataclass(frozen=True)
class SteadyParams:
    tol: float = 1e-9
    max_iter: int = 200
    substeps: int = 64


@dataclass
class BoundedSolveResult:
    ts: np.ndarray
    zs: np.ndarray
    sup_norm: float
    bound: float
    iterations: int
    iterate_diffs: list
    probe_residual: float | None
    horizon: float
    window: tuple[float, float]
    H: float
    iterates: list | None = None
    full_ts: np.ndarray | None = None
    full_zs: np.ndarray | None = None
    backward_uniqueness: object | None = None


@dataclass(frozen=True)
class PeriodicityParams:
    omega: float
    omega_bar: float
    k: int
    m: int
    period: float


@dataclass
class PeriodicSolveResult:
    bounded: BoundedSolveResult
    pparams: PeriodicityParams
    residual: float
    iterate_residuals: list
    certified: bool


def _check_h_bound(red, h0):
    lo, hi = red.spec.grid.window
    ts = np.linspace(lo, hi, 64)
    zero = np.zeros((64, red.n))
    g_origin = raise_at_first_nonfinite(red.g, red.g(ts, zero, zero), ts, zero, zero)
    worst = float(np.max(np.linalg.norm(g_origin, axis=1)))
    if worst > h0 * (1.0 + 1e-9) + 1e-9:
        raise ConditionError(
            f"sampled ||g(t,0,0)|| = {worst:.6g} exceeds the declared bound "
            f"h0 = {h0:.6g}"
        )


def bounded_solution(red, window=None, params=None, probe=True, seed=0,
                     store_iterates=False):
    """Unique bounded solution on the window mesh, with certificates.

    Requires h0 on the originating system (the bound of ||f(t,0,0)||)
    and the contraction condition 2*K*L/sigma < 1; refuses with margins
    otherwise.  ``window`` (default: the grid's) must be finite with
    lo < hi.  ``probe`` reruns the iteration from a random bounded
    initial function and records the coincidence residual.
    """
    params = params or SteadyParams()
    if not 0 < params.tol < math.inf:
        raise InvalidParameterError(f"tol must be positive and finite, got {params.tol}")
    spec = red.spec
    if window is None:
        window = spec.grid.window
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParameterError(f"bounded solve needs a finite window lo < hi, "
                                    f"got [{lo:g}, {hi:g}]")
    if spec.h0 is None:
        raise ConditionError("bounded solve requires the system's h0 bound")
    K, sigma, L = red.K, red.sigma, red.L
    contraction = 2.0 * K * L / sigma
    if contraction >= 1.0:
        raise ConditionError(
            f"contraction condition fails: 2KL/sigma = {contraction:.6g} >= 1 "
            f"(margin {1.0 - contraction:.6g})"
        )
    H = red.sup_u * spec.h0
    _check_h_bound(red, max(spec.h0, 1e-300))

    scale = max(K * max(H, params.tol) / sigma, 1.0)
    horizon = math.log(scale / params.tol) / sigma
    theta = spec.grid.gap_bound
    horizon = theta * math.ceil(max(horizon, 2.0 * theta) / theta)

    wide = spec.with_window((lo - horizon - 2 * theta, hi + horizon + 2 * theta))
    grid = wide.grid
    # snap the enlarged edges outward to knots so the mesh starts on one
    left = grid.knot(grid.interval_index(lo - horizon))
    right_idx = grid.interval_index(hi + horizon)
    right = grid.knot(right_idx + 1)
    op = IntegralOperator(red, grid, left, right, params.substeps)
    ts = op.mesh.ts
    u0 = np.zeros(red.k)
    v0 = np.zeros(red.m)
    inside = (ts >= lo - 1e-12) & (ts <= hi + 1e-12)

    def sweeps(z_start):
        return op.iterate(red.g, z_start, u0, v0, params.tol, params.max_iter,
                          rows=inside)

    diffs = []
    stored = [] if store_iterates else None
    for z, d in sweeps(np.zeros((len(ts), red.n))):
        diffs.append(d)
        if stored is not None:
            stored.append(z)

    probe_residual = None
    if probe:
        rng = np.random.default_rng(seed)
        scale = max(H / sigma, params.tol)
        for z_probe, _d in sweeps(rng.uniform(-scale, scale, size=(len(ts), red.n))):
            pass
        probe_residual = float(np.max(np.linalg.norm((z_probe - z)[inside], axis=1)))

    from .linear import check_backward_uniqueness

    bound = 2.0 * K * H / (sigma - 2.0 * K * L)
    return BoundedSolveResult(
        ts=ts[inside].copy(), zs=z[inside].copy(),
        sup_norm=float(np.max(np.linalg.norm(z[inside], axis=1))) if red.n else 0.0,
        bound=bound, iterations=len(diffs), iterate_diffs=diffs,
        probe_residual=probe_residual, horizon=horizon, window=(lo, hi), H=H,
        iterates=stored, full_ts=ts, full_zs=z,
        backward_uniqueness=check_backward_uniqueness(
            spec.mu, spec.lip, spec.grid.gap_bound),
    )


def periodicity_params(omega, omega_bar):
    """Coprime (k, m) with omega/omega_bar = k/m, detected by continued
    fractions with denominators up to 10**6.

    Floating-point periods are never exactly rational, so the ratio is
    accepted when the best bounded-denominator approximation lands within
    1e-9 relative; ratios needing a larger denominator raise.
    """
    if omega <= 0 or omega_bar <= 0:
        raise InvalidParameterError("periods must be positive")
    ratio = omega / omega_bar
    frac = Fraction(ratio).limit_denominator(10 ** 6)
    if frac.numerator <= 0:
        raise InvalidParameterError(f"ratio {ratio:g} has no positive rational approximation")
    if abs(ratio - float(frac)) > 1e-9 * max(1.0, ratio):
        raise InvalidParameterError(
            f"omega/omega_bar = {ratio!r} is not rational within 1e-09 for "
            "denominators up to 1000000"
        )
    return PeriodicityParams(
        omega=float(omega), omega_bar=float(omega_bar),
        k=int(frac.numerator), m=int(frac.denominator),
        period=int(frac.denominator) * float(omega),
    )


def _verify_c7(spec, omega):
    rng = np.random.default_rng(0)
    lo, hi = spec.grid.window
    for _ in range(24):
        t = rng.uniform(lo, hi)
        dA = np.linalg.norm(spec.eval_A(t + omega) - spec.eval_A(t), 2) \
            if lo <= t + omega <= hi else 0.0
        y = rng.uniform(-1, 1, spec.n)
        w = rng.uniform(-1, 1, spec.n)
        df = float(np.linalg.norm(spec.eval_f(t + omega, y, w) - spec.eval_f(t, y, w)))
        if dA > 1e-8 or df > 1e-8:
            raise ConditionError(
                f"coefficients are not {omega:g}-periodic at t={t:.6g} "
                f"(|dA|={dA:.3g}, |df|={df:.3g})"
            )


def _verify_c8(grid):
    if grid.periodic is None:
        raise ConditionError("grid carries no periodic extension (p, omega_bar)")
    p, obar = grid.periodic
    knots = grid.knots
    if len(knots) > p:
        shift = knots[p:] - knots[:-p]
        worst = float(np.max(np.abs(shift - obar)))
        if worst > 1e-9 * (1.0 + abs(obar)):
            raise ConditionError(
                f"grid is not (p={p}, omega_bar={obar:g})-periodic: worst "
                f"deviation {worst:.3g}"
            )
    return p, obar


def periodic_solution(red, params=None):
    """Bounded solution of a periodic system plus its periodicity residual.

    Verifies by sampling that the coefficients share the declared period
    and that the grid repeats, computes (k, m), runs the bounded solve
    over [start, start + 2*period] with time-wrapped coefficient
    evaluation, and reports max ||z(t + m*omega) - z(t)|| over one period
    of mesh points (for the limit and for every stored iterate).
    """
    params = params or SteadyParams()
    spec = red.spec
    p, obar = _verify_c8(spec.grid)
    omega = spec.period
    if omega is None:
        # autonomous coefficients: any period works; use the grid's own
        omega = _autonomous_period(spec, obar)
    else:
        _verify_c7(spec, omega)
    pparams = periodicity_params(omega, obar)
    period = pparams.period

    red_wrapped = red.with_time_wrapped(omega) if spec.period is not None else red
    lo = spec.grid.window[0]
    start_idx = spec.grid.nearest_knot_index(lo)
    if start_idx is None:
        start_idx = spec.grid.interval_index(lo) + 1
    start = spec.grid.knot(start_idx)
    solve_window = (start, start + 2.0 * period)
    bounded = bounded_solution(red_wrapped, window=solve_window, params=params,
                               probe=False, store_iterates=True)

    # pair each mesh point of the first period with its shift by m*omega
    ts = bounded.ts
    base = np.flatnonzero(ts <= ts[0] + period + 1e-12)
    partner = np.searchsorted(ts, ts[base] + period)
    partner = np.clip(partner, 0, len(ts) - 1)
    good = np.abs(ts[partner] - (ts[base] + period)) <= 1e-9 * (1.0 + period)
    if not np.any(good):
        raise InvalidParameterError(
            "no mesh point has a partner one period ahead; the mesh does not "
            "resolve m*omega"
        )
    base, partner = base[good], partner[good]

    def one_period_residual(z):
        return float(np.max(np.linalg.norm(z[partner] - z[base], axis=1)))

    residual = one_period_residual(bounded.zs)
    inside = (bounded.full_ts >= ts[0] - 1e-12) & (bounded.full_ts <= ts[-1] + 1e-12)
    return PeriodicSolveResult(
        bounded=bounded, pparams=pparams, residual=residual,
        iterate_residuals=[one_period_residual(zi[inside]) for zi in bounded.iterates],
        certified=residual <= 10.0 * params.tol,
    )


def _autonomous_period(spec, obar):
    rng = np.random.default_rng(0)
    lo, hi = spec.grid.window
    for _ in range(16):
        t1, t2 = rng.uniform(lo, hi, 2)
        y = rng.uniform(-1, 1, spec.n)
        w = rng.uniform(-1, 1, spec.n)
        if (np.linalg.norm(spec.eval_A(t1) - spec.eval_A(t2), 2) > 1e-8
                or np.linalg.norm(spec.eval_f(t1, y, w) - spec.eval_f(t2, y, w)) > 1e-8):
            raise ConditionError(
                "system has no declared period and is not autonomous; "
                "set the period explicitly"
            )
    return obar
