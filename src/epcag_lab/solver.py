"""Forward simulation and backward continuation of EPCAG trajectories.

Within each knot interval [theta_i, theta_{i+1}) the delayed argument is
frozen at the state reached at theta_i, so the equation is an ordinary
ODE there, with the frozen value as a parameter (a config f evaluates
its subexpressions in that value alone once per interval, not at every
RK4 stage); knots are non-smooth points and the integration mesh never
steps across one.  Backward continuation inverts the one-interval
shooting map x -> y(theta_{i+1}; theta_i, x) by damped Newton, then
polishes the distinct roots by plain Newton; one batched kernel,
``_newton``, runs both, and one driver, ``_roots``, runs them from any set
of starts.  Where the paper's backward-uniqueness inequality makes the map
injective, the driver runs from one start, the linear preimage, and a
bound on its root's Jacobian certifies the root as the only one;
elsewhere, or when the certificate fails, it runs from a multi-start
lattice to find every root.  When f does not read y the
shooting map is the RK4 quadrature of the integral representation, and
one search builds its stage weights (``integrate.WeightPlan``) once for
all its calls.  Preimages may fail to exist or be non-unique, and both
outcomes are reported rather than hidden.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlowUpError,
    EpcagError,
    InvalidParameterError,
    OutOfWindowError,
)
from .expressions import raise_at_first_nonfinite
from .integrate import Affine, WeightPlan, propagator, rk4_final, rk4_segment, sample_A
from .linear import check_backward_uniqueness
from .system import state_vector

__all__ = [
    "SolutionPath",
    "PreimageSet",
    "BackwardContinuation",
    "solve_forward",
    "shooting_map",
    "back_continue_interval",
    "lattice_preimages",
    "back_continue",
]

@dataclass
class SolutionPath:
    """Piecewise-smooth trajectory with dense sub-step storage.

    ``ts``/``ys``/``derivs`` hold the mesh times, states and stored
    right-hand-side values; ``frozen`` the delayed argument in force at
    each mesh point and ``intervals`` the knot-interval index.  The path
    is immutable once returned.
    """

    ts: np.ndarray
    ys: np.ndarray
    derivs: np.ndarray
    frozen: np.ndarray
    intervals: np.ndarray
    direction: str = "forward"
    diagnostics: dict = field(default_factory=dict)

    @property
    def t0(self):
        return float(self.ts[0])

    @property
    def t_end(self):
        return float(self.ts[-1])

    def value(self, t):
        """State at time t by cubic Hermite interpolation on the mesh."""
        ts = self.ts
        if not ts[0] <= t <= ts[-1]:
            raise OutOfWindowError(f"t={t} outside the stored path range")
        j = int(np.searchsorted(ts, t, side="right")) - 1
        j = min(max(j, 0), len(ts) - 2)
        if t == ts[j]:
            return self.ys[j].copy()
        if t == ts[j + 1]:
            return self.ys[j + 1].copy()
        h = ts[j + 1] - ts[j]
        s = (t - ts[j]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s ** 2 * (3 - 2 * s)
        h11 = s ** 2 * (s - 1)
        return (h00 * self.ys[j] + h10 * h * self.derivs[j]
                + h01 * self.ys[j + 1] + h11 * h * self.derivs[j + 1])

    def at_knots(self):
        """(times, states) restricted to grid knots stored on the mesh."""
        mask = np.zeros(len(self.ts), dtype=bool)
        mask[0] = mask[-1] = True
        change = np.flatnonzero(np.diff(self.intervals)) + 1
        mask[change] = True
        # knot points are stored twice (left/right corner copies); keep one
        ts, ys = self.ts[mask], self.ys[mask]
        keep = np.concatenate([[True], np.diff(ts) > 0])
        return ts[keep], ys[keep]


@dataclass
class PreimageSet:
    """Roots of the one-interval shooting map for a given target, with the
    search's deterministic work counts in ``diagnostics``."""

    interval: int
    t_target: float
    x_target: np.ndarray
    preimages: list
    residuals: list
    classification: str  # "none" | "unique" | "multiple"
    search_exhausted: bool
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        counts = {0: "none", 1: "unique"}
        expected = counts.get(len(self.preimages), "multiple")
        if self.classification != expected:
            raise EpcagError("classification inconsistent with preimage count")


@dataclass
class BackwardContinuation:
    """Outcome of chained interval-by-interval backward continuation."""

    ok: bool
    path: SolutionPath | None
    steps: list
    flags: list
    failed_interval: int | None = None
    residual: float | None = None


def _frozen_rhs(spec, w):
    """Right-hand side t, y -> A(t) y + f(t, y, w) with w held frozen.

    A is ``spec.coefficient``: the declared constant as an array, else
    ``spec.eval_A``.  When ``spec.f_ignores_y`` is set the equation is
    affine in y with the forcing f(t, w), and the result is an
    ``integrate.Affine`` that the integrators take in closed form.
    Otherwise it is a callable for the RK4 step loop, which takes f from
    ``_frozen_f`` (a constant A is transposed once for it).  A scalar or
    short f result is broadcast to the shape of y by the addition, as
    ``eval_f`` does.
    """
    A = spec.coefficient
    if spec.f_ignores_y:
        return Affine(A, _forcing(spec, w))

    f = _frozen_f(spec, w)
    if callable(A):
        return lambda t, y: y @ A(t).T + f(t, y)

    AT = A.T

    def rhs(t, y):
        dy = y @ AT
        dy += f(t, y)
        return dy

    return rhs


def _frozen_f(spec, w):
    """t, y -> f(t, y, w) for the step loop, with w frozen.

    A config f has a fold hook (``f.fold``): the function it returns has
    every subexpression that reads only w evaluated once, here, instead of
    at every RK4 stage, with the same bits and the same domain errors.
    Any other f is called as it is, with w.
    """
    fold = getattr(spec.f, "fold", None)
    if fold is not None:
        return fold(w)
    f = spec.f
    return lambda t, y: f(t, y, w)


def _forcing(spec, w):
    """The forcing ts -> f(ts, w, w) of the frozen-argument equation when f
    does not read y, with shape (T,) + w.shape for T stage times.

    A stage value that is not finite is evaluated again at its time alone,
    as the step loop evaluates it, so that a domain error the loop raises
    (one not local to a row of a batch) is raised here too.
    """
    w = np.asarray(w, dtype=float)

    def g(ts):
        out = spec.eval_f(ts.reshape((-1,) + (1,) * (w.ndim - 1)), w, w)
        out = np.broadcast_to(out, ts.shape + w.shape)
        return raise_at_first_nonfinite(lambda t: spec.eval_f(t, w, w), out, ts)

    return g


def _segment_steps(substeps, span, full_span):
    return max(2, int(math.ceil(substeps * span / full_span)))


def solve_forward(spec, t0, y0, t_end, substeps=64, w0=None, guard=1e12):
    """Integrate forward from (t0, y0) to t_end.

    At every grid knot the frozen argument updates to the current state.
    If t0 is interior to a knot interval the caller must supply the
    frozen value ``w0`` in force there; starting from a knot it is y0
    itself.
    """
    grid = spec.grid
    lo, hi = grid.window
    if not (lo <= t0 <= hi and lo <= t_end <= hi):
        raise OutOfWindowError(f"[{t0}, {t_end}] not inside window [{lo}, {hi}]")
    if t_end < t0:
        raise InvalidParameterError("t_end must be >= t0; use back_continue for t_end < t0")
    y0 = state_vector(y0, spec.n, "y0")

    knot_idx = grid.nearest_knot_index(t0)
    if knot_idx is not None:
        t0 = grid.knot(knot_idx)
        w = y0.copy()
    elif w0 is None:
        raise InvalidParameterError(
            "t0 is interior to a knot interval: supply the frozen value w0 "
            "(or start from a grid knot)"
        )
    else:
        w = state_vector(w0, spec.n, "w0")

    if t_end == t0:
        d = spec.eval_A(t0) @ y0 + spec.eval_f(t0, y0, w)
        return SolutionPath(
            ts=np.array([t0]), ys=y0[None], derivs=d[None], frozen=w[None],
            intervals=np.array([grid.interval_index(t0)]),
            diagnostics={"segments": 0},
        )

    ts_parts, ys_parts, ds_parts, w_parts, i_parts = [], [], [], [], []
    cur_t, cur_y = t0, y0
    while cur_t < t_end:
        i = grid.interval_index(cur_t)
        a, b = grid.knot(i), grid.knot(i + 1)
        seg_end = min(b, t_end)
        ns = _segment_steps(substeps, seg_end - cur_t, b - a)
        ts, ys, ds = rk4_segment(_frozen_rhs(spec, w), cur_t, cur_y, seg_end, ns,
                                 guard=guard)
        # knots are corner points: each segment stores its own boundary copy
        # so the left and right derivative versions are both available
        ts_parts.append(ts)
        ys_parts.append(ys)
        ds_parts.append(ds)
        w_parts.append(np.broadcast_to(w, ys.shape).copy())
        i_parts.append(np.full(len(ts), i))
        cur_t, cur_y = seg_end, ys[-1]
        if seg_end == b and seg_end < t_end:
            w = cur_y.copy()  # frozen argument updates at the knot

    return SolutionPath(
        ts=np.concatenate(ts_parts),
        ys=np.concatenate(ys_parts),
        derivs=np.concatenate(ds_parts),
        frozen=np.concatenate(w_parts),
        intervals=np.concatenate(i_parts),
        diagnostics={"segments": len(ts_parts), "substeps": substeps},
    )


def _shooting_steps(spec, i, t_target, substeps):
    """The start theta_i and the RK4 step count of the shooting map of
    interval i to t_target."""
    a, b = spec.grid.knot(i), spec.grid.knot(i + 1)
    return a, _segment_steps(substeps, t_target - a, b - a)


def _phi_batch(spec, i, X, t_target, substeps, plan=None):
    """Shooting values at t_target for a batch of interval start states.

    Row x of X is used both as the state at theta_i and as the frozen
    argument, which is exactly the map whose inversion defines backward
    continuation.  Overflowing rows come back non-finite instead of
    raising, so a wild Newton start cannot kill the whole batch.  ``plan``
    is the ``WeightPlan`` of the affine path over this span, if one is
    kept.
    """
    a, ns = _shooting_steps(spec, i, t_target, substeps)
    with np.errstate(over="ignore", invalid="ignore"):
        return rk4_final(_frozen_rhs(spec, X), a, X, t_target, ns, plan=plan)


def shooting_map(spec, i, x0, substeps=64):
    """One-interval forward map x -> y(theta_{i+1}; theta_i, x): the last
    value of ``solve_forward`` from (theta_i, x) to theta_{i+1}, with its
    overflow guard, 1e12."""
    return solve_forward(spec, spec.grid.knot(i), x0, spec.grid.knot(i + 1), substeps).ys[-1]


def _fd_jacobian(phi, X):
    """phi at the rows of X and its central-difference Jacobians there,
    shapes (m, n) and (m, n, n), from one phi call with the 2n probes."""
    m, n = X.shape
    h = 1e-6 * (1.0 + np.abs(X))  # (m, n): step of coordinate k in row q
    E = np.zeros((n, m, n))
    E[np.arange(n), :, np.arange(n)] = h.T
    # probe k of row q at [k, q], then the rows themselves at [2n, q]
    F = phi(np.concatenate([X + E, X - E, X[None]]).reshape(-1, n)).reshape(-1, m, n)
    with np.errstate(over="ignore", invalid="ignore"):  # rows that overflowed
        J = ((F[:n] - F[n:2 * n]) / (2.0 * h.T[:, :, None])).transpose(1, 2, 0)
    return F[2 * n], J


def _residual(F, x_target):
    """Rows r = F - x_target and their 2-norms (inf where not finite)."""
    r = F - x_target
    with np.errstate(over="ignore"):  # a norm above about 1e154 reads inf
        rn = np.linalg.norm(r, axis=1)
    rn[~np.isfinite(rn)] = np.inf
    return r, rn


@dataclass
class _NewtonRows:
    """The rows of a Newton run: points X, residuals r = phi(X) - x_target,
    their norms rn, Jacobians J, and ``fresh``, whether J[q] is the
    Jacobian at X[q] (not for a row last moved by a halving)."""

    X: np.ndarray
    r: np.ndarray
    rn: np.ndarray
    J: np.ndarray
    fresh: np.ndarray

    @classmethod
    def at(cls, phi, x_target, X):
        """The rows at the points X, from one phi call with their probes."""
        X = X.astype(float)
        F, J = _fd_jacobian(phi, X)
        return cls(X, *_residual(F, x_target), J, np.ones(len(X), dtype=bool))

    def take(self, rows):
        return _NewtonRows(self.X[rows], self.r[rows], self.rn[rows], self.J[rows],
                           self.fresh[rows])


def _newton(phi, x_target, rows, tol_abs, max_iter, max_halvings, decrease):
    """Batched damped Newton for phi(x) = x_target from ``rows``, a
    ``_NewtonRows``, which it advances in place and returns.

    A trial is accepted when its residual is below ``(1 - decrease)``
    times the row's or meets ``tol_abs``; a row stops when it meets
    ``tol_abs``, its Jacobian is not finite, or neither the full step nor
    one of its ``max_halvings`` halvings is accepted.  Full steps are
    evaluated with their probes, so an accepted one carries its next
    Jacobian and an iteration without halvings makes one phi call.
    Halvings go in one call without probes; the rows they move get their
    Jacobians in one call at the next iteration (or at the first
    iteration of a later run from the same rows).
    """
    X, r, rn, J, fresh = rows.X, rows.r, rows.rn, rows.J, rows.fresh
    n = X.shape[1]
    alive = np.ones(len(X), dtype=bool)
    lams = 0.5 ** np.arange(1, max_halvings + 1)

    for _ in range(max_iter):
        act = np.flatnonzero(alive & (rn > tol_abs) & np.isfinite(rn))
        if len(act) == 0:
            break
        stale = act[~fresh[act]]
        if len(stale):
            J[stale] = _fd_jacobian(phi, X[stale])[1]
            fresh[stale] = True
        Ja = J[act]
        bad = ~np.isfinite(Ja).all(axis=(1, 2))
        try:
            delta = np.linalg.solve(
                np.where(bad[:, None, None], np.eye(n), Ja), -r[act][..., None]
            )[..., 0]
        except np.linalg.LinAlgError:
            delta = np.stack([
                np.zeros(n) if bad[q] else np.linalg.lstsq(Ja[q], -r[act][q],
                                                           rcond=None)[0]
                for q in range(len(act))
            ])
        alive[act[bad]] = False
        idx, step = act[~bad], delta[~bad]
        if len(idx) == 0:
            continue

        cand = X[idx] + step
        F_c, J_c = _fd_jacobian(phi, cand)
        r_c, rn_c = _residual(F_c, x_target)
        ok = (rn_c < rn[idx] * (1.0 - decrease)) | (rn_c <= tol_abs)
        sel = idx[ok]
        X[sel], r[sel], rn[sel], J[sel] = cand[ok], r_c[ok], rn_c[ok], J_c[ok]
        rest, step = idx[~ok], step[~ok]

        if len(lams) and len(rest):
            L, m = len(lams), len(rest)
            cand = X[rest] + lams[:, None, None] * step  # (L, m, n)
            r_c, rn_c = _residual(phi(cand.reshape(-1, n)), x_target)
            r_c, rn_c = r_c.reshape(L, m, n), rn_c.reshape(L, m)
            ok = (rn_c < rn[rest] * (1.0 - decrease)) | (rn_c <= tol_abs)
            hit = ok.any(axis=0)  # each row takes the first lam accepted
            pick = ok.argmax(axis=0)[hit], np.flatnonzero(hit)
            sel = rest[hit]
            X[sel], r[sel], rn[sel] = cand[pick], r_c[pick], rn_c[pick]
            fresh[sel] = False
            rest = rest[~hit]
        alive[rest] = False  # stalled: no descent possible

    return rows


class _Search:
    """One preimage search of (t_target, x_target) from theta_i: the target,
    its root tolerance, and the shooting map ``phi`` with its work counts.

    Every call of ``phi`` goes through ``_phi_batch`` and is counted; when
    ``spec.f_ignores_y`` holds, all of them share one ``WeightPlan`` of the
    span.
    """

    def __init__(self, spec, i, t_target, x_target, substeps, root_tol):
        a, b = spec.grid.knot(i), spec.grid.knot(i + 1)
        if not (a < t_target <= b):
            raise InvalidParameterError(
                f"t_target={t_target} not in (theta_{i}, theta_{i + 1}] = ({a}, {b}]"
            )
        self.spec, self.i, self.t_target, self.substeps = spec, i, t_target, substeps
        self.x_target = state_vector(x_target, spec.n, "x_target")
        with np.errstate(over="ignore"):
            size = float(np.linalg.norm(self.x_target))
        # where the squares overflowed, hypot's scaled sum does not
        self.size = size if math.isfinite(size) else math.hypot(*self.x_target)
        self.tol_abs = root_tol * (1.0 + self.size)
        self.a, self.n_steps = _shooting_steps(spec, i, t_target, substeps)
        self.plan = None
        if spec.f_ignores_y:
            self.plan = WeightPlan(spec.coefficient, self.a, t_target, self.n_steps)
        self.work = {"shooting_calls": 0, "shooting_rows": 0}

    def phi(self, X):
        self.work["shooting_calls"] += 1
        self.work["shooting_rows"] += len(X)
        return _phi_batch(self.spec, self.i, X, self.t_target, self.substeps, self.plan)

    def result(self, preimages, residuals, **diagnostics):
        """The ``PreimageSet`` of the roots found, with the work counts and
        ``diagnostics``."""
        return PreimageSet(
            interval=self.i, t_target=float(self.t_target), x_target=self.x_target,
            preimages=preimages, residuals=residuals,
            classification={0: "none", 1: "unique"}.get(len(preimages), "multiple"),
            search_exhausted=(len(preimages) == 0),
            diagnostics={**self.work, "path": "loop" if self.plan is None else "weights",
                         **diagnostics},
        )


def _uniqueness_gate(spec, i, t_target, substeps):
    """The backward-uniqueness ``InequalityCheck`` of ``spec`` when it
    certifies the shooting map of interval i to t_target, else None.

    The inequality must hold for the declared mu and lip, and mu must bound
    ||A(s)||_2: once for a constant A, at the stage times of the shooting
    map's RK4 steps for a callable.  A spec with lip = 0 (also a config
    that declares no constants) is never certified: its lhs is 0, and
    ||J - X||_2 is 0 up to rounding wherever f's derivatives are, so the
    root's certificate could not tell an f constant in the state from a
    mis-declared one that reads it.
    """
    if spec.lip == 0:
        return None
    bw = check_backward_uniqueness(spec.mu, spec.lip, spec.grid.gap_bound)
    if not bw.holds:
        return None
    A = spec.coefficient
    if callable(A):
        a, n_steps = _shooting_steps(spec, i, t_target, substeps)
        A = sample_A(A, a + (0.5 * (t_target - a) / n_steps) * np.arange(2 * n_steps + 1))
    if not np.isfinite(A).all() or np.linalg.norm(A, 2, axis=(-2, -1)).max() > spec.mu:
        return None
    return bw


def _dedupe(X):
    """Indices of the rows of X kept: smallest-norm first, greedy by the
    clustering radius 1e-5*(1 + ||x||)."""
    order = sorted(range(len(X)), key=lambda q: (np.linalg.norm(X[q]), tuple(X[q])))
    kept = []
    for q in order:
        radius = 1e-5 * (1.0 + np.linalg.norm(X[q]))
        if all(np.linalg.norm(X[q] - X[p]) > radius for p in kept):
            kept.append(q)
    return kept


def _roots(search, starts):
    """The distinct roots Newton finds from the rows of ``starts``, as the
    polished ``_NewtonRows``, smallest norm first.

    Damped Newton (at most 50 iterations of 8 halvings each) runs from
    every start.  The rows that meet the root tolerance, distinct by
    ``_dedupe``, are polished together by the same kernel as plain Newton
    (tolerance 0, no halvings, at most 10 steps), starting from the
    search's residuals and Jacobians there, and deduplicated again.
    """
    phi, x_target = search.phi, search.x_target
    rows = _newton(phi, x_target, _NewtonRows.at(phi, x_target, starts), search.tol_abs,
                   50, 8, 1e-4)
    roots = np.flatnonzero(np.isfinite(rows.rn) & (rows.rn <= search.tol_abs))
    # the search's values at its roots seed the polish, so only the
    # Jacobians of roots last moved by a halving are evaluated again
    rows = _newton(phi, x_target, rows.take(roots[_dedupe(rows.X[roots])]), 0.0, 10, 0, 0.0)
    return rows.take(_dedupe(rows.X))


def _single_start(search, bw):
    """The preimage certified by ``bw``, from one Newton start, or None.

    The start is the linear preimage X^{-1} x_target, X = X(t_target,
    theta_i) the RK4 propagator of the shooting map's steps, and
    ``_roots`` runs Newton from it as from the lattice.  The root is kept
    only when its polished Jacobian J is fresh and passes ||J - X||_2 <=
    lhs, the inequality's bound on the nonlinear part.  With ||A|| <= mu,
    sigma_min(X) >= m, and so J is as far from singular as the margin
    m - lhs.  Returns (preimage, residual, ||J - X||_2).
    """
    X = propagator(search.spec.coefficient, search.a, search.t_target, search.n_steps)
    x0 = np.linalg.solve(X, search.x_target)
    if not np.isfinite(x0).all():
        return None
    rows = _roots(search, x0[None])
    if len(rows.X) == 0:
        return None
    gap = float(np.linalg.norm(rows.J[0] - X, 2))
    if not (rows.fresh[0] and gap <= bw.lhs):
        return None
    return rows.X[0], float(rows.rn[0]), gap


def _lattice(search):
    """Every preimage ``_roots`` finds from the 17^n start lattice, with
    its residual.

    The lattice has 17 points per coordinate spanning [-R, R],
    R = min(max(10, 10*||x_target||), 1e307), so it stays finite for any
    finite target.
    """
    R = min(max(10.0, 10.0 * search.size), 1e307)  # 2R stays finite for linspace
    axes = [np.linspace(-R, R, 17)] * search.spec.n
    mesh = np.meshgrid(*axes, indexing="ij")
    rows = _roots(search, np.stack([m.ravel() for m in mesh], axis=1))
    return list(rows.X), [float(r) for r in rows.rn]


def lattice_preimages(spec, i, t_target, x_target, substeps=64, root_tol=1e-9):
    """``back_continue_interval`` by the 17^n start lattice alone.

    The reference search: it runs the lattice whether or not the
    backward-uniqueness inequality certifies the interval, so it finds the
    roots of a certified interval independently of the single start and
    its certificate.  Same arguments, tolerances and ``PreimageSet`` as
    ``back_continue_interval``, with ``starts`` = 17^n.
    """
    search = _Search(spec, i, t_target, x_target, substeps, root_tol)
    return search.result(*_lattice(search), starts=17 ** spec.n)


def back_continue_interval(spec, i, t_target, x_target, substeps=64,
                           root_tol=1e-9):
    """All preimages at theta_i of (t_target, x_target) in its interval.

    Finds every x with a finite ||phi(x) - x_target|| below the root
    tolerance root_tol*(1 + ||x_target||), where phi integrates the
    frozen-argument equation from (theta_i, x) to t_target.

    Where the backward-uniqueness inequality holds for a declared lip > 0
    and the declared mu bounds ||A|| over the span, phi is injective and
    the preimage, if any, is unique (see ``_uniqueness_gate``).  The
    search then runs the lattice's Newton driver (``_roots``: damped
    Newton, then the polish) from one start, the linear preimage; the root
    is accepted as "unique" when its polished Jacobian J passes
    ||J - X||_2 <= lhs against the linear propagator X (see
    ``_single_start``).  Otherwise, and wherever the inequality does not
    certify the interval, the driver runs from the 17^n start lattice (see
    ``lattice_preimages``), unchanged.  An empty result is reported as
    classification "none" with the search budget flagged as exhausted
    (absence of roots is not proved).

    When ``spec.f_ignores_y`` holds, every shooting-map call of the search
    shares one ``WeightPlan`` of the span.  The result's ``diagnostics``
    count the calls (``shooting_calls``), their rows (``shooting_rows``)
    and the Newton ``starts`` (1 for the single start, 17^n for the
    lattice, 1 + 17^n when the single start fell back to it), and name the
    ``path``, "weights" or "loop".  A root accepted from the single start
    adds its certificate, ``jacobian_gap`` = ||J - X||_2 and the
    inequality's ``lhs``.
    """
    search = _Search(spec, i, t_target, x_target, substeps, root_tol)
    bw = _uniqueness_gate(spec, i, t_target, substeps)
    if bw is None:
        return search.result(*_lattice(search), starts=17 ** spec.n)
    found = _single_start(search, bw)
    if found is None:
        return search.result(*_lattice(search), starts=1 + 17 ** spec.n)
    x, rq, gap = found
    return search.result([x], [rq], starts=1, jacobian_gap=gap, lhs=bw.lhs)


def back_continue(spec, t0, x0, t_target, substeps=64, root_tol=1e-9):
    """Chain interval preimages from (t0, x0) down past t_target.

    Where a step has several preimages the smallest-norm one is taken
    and the choice is flagged; when the backward-uniqueness inequality
    certifies that step's interval (see ``back_continue_interval``),
    several preimages contradict it and raise instead.  Returns the
    reconstructed path anchored at the last knot reached, or a failure
    report naming the interval where continuation died.
    """
    grid = spec.grid
    if not t_target < t0:
        raise InvalidParameterError("t_target must be < t0")
    lo, hi = grid.window
    if not (lo <= t_target and t0 <= hi):
        raise OutOfWindowError("continuation range leaves the working window")
    x0 = state_vector(x0, spec.n, "x0")

    flags = []
    steps = []
    cur_t, cur_x = float(t0), x0
    while cur_t > t_target:
        knot_idx = grid.nearest_knot_index(cur_t)
        if knot_idx is not None:
            i = knot_idx - 1
            cur_t = grid.knot(knot_idx)
        else:
            i = grid.interval_index(cur_t)
        ps = back_continue_interval(spec, i, cur_t, cur_x, substeps=substeps,
                                    root_tol=root_tol)
        steps.append(ps)
        if ps.classification == "none":
            return BackwardContinuation(
                ok=False, path=None, steps=steps, flags=flags, failed_interval=i,
            )
        if ps.classification == "multiple":
            # a search runs 17^n starts exactly when its interval is not
            # certified, and 1 + 17^n when the certified start fell back
            if ps.diagnostics["starts"] != 17 ** spec.n:
                raise EpcagError(
                    f"multiple preimages at interval {i} although the "
                    "backward-uniqueness inequality certifies it; root clustering "
                    "is suspect"
                )
            flags.append(f"non-unique branch chosen at interval {i}")
        cur_x = ps.preimages[0]
        cur_t = grid.knot(i)

    path = solve_forward(spec, cur_t, cur_x, t0, substeps=substeps)
    residual = float(np.linalg.norm(path.value(t0) - x0))
    path.direction = "backward-reconstructed"
    path.diagnostics["anchor_residual"] = residual
    return BackwardContinuation(
        ok=True, path=path, steps=steps, flags=flags, residual=residual,
    )
