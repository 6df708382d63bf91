"""Mesh and quadrature machinery for the integral-equation iterations.

The integral operators are evaluated by composite Simpson panels laid on
a mesh whose panel boundaries coincide with grid knots, so the jump of
the frozen argument never falls inside a panel.  Each knot interval
carries an even number of equal sub-steps; odd mesh points are filled
with the half-panel Newton-Cotes rule

    int_{x0}^{x1} p = h*(5 f0 + 8 f1 - f2)/12

for the quadratic through three consecutive points (and its mirror),
matching Simpson's fourth-order accuracy.

The integrand g(s, z(s), z(beta(s))) is two-valued at knots: the closing
point of an interval must use the left limit (frozen at that interval's
own start) while the same mesh point opens the next interval with the
frozen value updated.  Callers therefore pass per-point values ``gvals``
(right-continuous) plus per-interval closing values ``g_close``; using
the right-continuous value on both sides would degrade the scheme to
first order.

Instead of forming the ill-conditioned products Prop(t, t0) directly,
values are carried from panel to panel.  On the two-sub-step panel that
starts at mesh point q the even mesh values obey an affine recursion

    x_{j+1} = P_j x_j + c_j,    P_j = F[q+1] F[q]  (forward),

with c_j the panel's Simpson term, which depends on g only.  The backward
accumulation is the same recursion run down the mesh from its top with
the negative step -h: its panels go from t_{q+2} to t_q, P_j = B[q] B[q+1],
and one function builds the Simpson terms of both directions.  The
panels are taken ``_SCAN_BLOCK`` at a time.  A block's panel terms are
built with batched matrix products over strided views of the mesh
arrays, its affine recursion is solved by the doubling (Hillis-Steele)
prefix scan of ``integrate.ScanPlan``, and the block starts from the
last value of the block before.  The odd mesh points then follow from
their panel's even start in one vector step.

Only the c_j depend on g.  A ``SweepPlan`` holds everything else one
direction's sweeps share: the panel maps, the signed sub-steps, the
closing panels and, per block, the scan's plan built from the P_j (the
products the scan multiplies c by at each level, and the composed maps
that carry the block's start value).  ``IntegralOperator`` builds the
plan of each direction at its first sweep and hands it to every later
one, so a Picard or steady-state sweep forms no propagator product.  A
scan level whose products are bitwise equal is stored as one matrix;
on a uniform mesh with a constant block nearly every level is, so the
plans stay smaller than the sub-step propagators they are built from.

The composed maps are products of consecutive P_j, i.e. propagators
Prop(t_b, t_a) of the contracting block in its contracting direction:
the forward accumulator only sees the plus block, whose forward flow
decays, and the backward accumulator only the minus block, whose
backward flow decays.  So every factor the scan forms stays bounded by
the dichotomy constant, exactly as for the panel-by-panel recursion, and
the blocks only bound the size of the scan's temporaries.

``IntegralOperator`` packages one window's mesh and propagators with the
split operator (u forward from the lower end, v backward from the upper
end) and its successive-approximation loop; the manifold, variational
and bounded/periodic iterations all run on it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidParameterError
from .expressions import raise_at_first_nonfinite
from .integrate import ScanPlan, propagator

__all__ = ["QuadMesh", "IntegralOperator", "SweepPlan", "build_mesh", "block_propagators",
           "accumulate_forward", "accumulate_backward"]

# panels per block of the affine scan; bounds the size of its temporaries
_SCAN_BLOCK = 128


@dataclass
class QuadMesh:
    """Quadrature mesh aligned with grid knots.

    ``ts`` are the mesh times; ``beta_idx[j]`` is the mesh index holding
    beta(ts[j]) (right-continuous; always present because the mesh starts
    at a knot); ``blocks`` lists (start_index, n_substeps, h) per knot
    interval with n_substeps even.
    """

    ts: np.ndarray
    beta_idx: np.ndarray
    blocks: list

    @property
    def size(self):
        return len(self.ts)

    @property
    def block_starts(self):
        return np.array([b[0] for b in self.blocks], dtype=int)

    @property
    def block_ends(self):
        return np.array([b[0] + b[1] for b in self.blocks], dtype=int)


def build_mesh(grid, lo, hi, substeps=64):
    """Mesh over [lo, hi] where lo must be a grid knot.

    hi may fall inside a knot interval; the partial interval gets its own
    even sub-step count at comparable resolution.  The caller keeps
    [lo, hi] inside the grid's working window.
    """
    substeps = int(substeps)
    if substeps % 2:
        substeps += 1
    if grid.nearest_knot_index(lo) is None:
        raise InvalidParameterError(f"mesh start {lo} must be a grid knot")
    ts_parts = []
    blocks = []
    cur = lo
    pos = 0
    i = grid.interval_index(lo)
    knot_start = grid.knot(i)
    while cur < hi - 1e-12 * (1.0 + abs(hi)):
        knot_end = grid.knot(i + 1)
        b = min(knot_end, hi)
        span = b - cur
        ns = max(2, int(np.ceil(substeps * span / (knot_end - knot_start))))
        if ns % 2:
            ns += 1
        h = span / ns
        seg = cur + h * np.arange(1, ns + 1)
        seg[-1] = b
        ts_parts.append(seg)
        blocks.append((pos, ns, h))
        pos += ns
        cur, knot_start = b, knot_end
        i += 1
    if not ts_parts:
        raise InvalidParameterError("empty mesh: hi must exceed lo")
    ts = np.concatenate([[lo]] + ts_parts)
    # each interval's points freeze at its start; the last point is its
    # own beta when the mesh ends on a knot
    beta_idx = np.repeat([start for start, _ns, _h in blocks],
                         [ns for _start, ns, _h in blocks])
    beta_idx = np.append(beta_idx, pos if b == knot_end else beta_idx[-1])
    return QuadMesh(ts=ts, beta_idx=beta_idx, blocks=blocks)


def block_propagators(block, mesh, dim):
    """Per-sub-step forward and backward propagators of one block.

    Returns arrays F, B of shape (n_sub, dim, dim) with
    F[j] = Prop(t_{j+1}, t_j) and B[j] = Prop(t_j, t_{j+1}) by two RK4
    steps of ``propagator``.  For a constant block (an array) the values
    only depend on the step size (rounded to 15 decimals) and are computed
    once per distinct step, at its first sub-step, in closed form.
    """
    ts = mesh.ts
    nsub = len(ts) - 1
    F = np.empty((nsub, dim, dim))
    B = np.empty((nsub, dim, dim))
    if dim == 0:
        return F, B
    if isinstance(block, np.ndarray):
        _, first, inverse = np.unique(np.round(np.diff(ts), 15),
                                      return_index=True, return_inverse=True)
        Fs = [propagator(block, ts[j], ts[j + 1], n_steps=2) for j in first]
        Bs = [propagator(block, ts[j + 1], ts[j], n_steps=2) for j in first]
        np.take(Fs, inverse, axis=0, out=F)
        np.take(Bs, inverse, axis=0, out=B)
    else:
        for j in range(nsub):
            F[j] = propagator(block, ts[j], ts[j + 1], n_steps=2)
            B[j] = propagator(block, ts[j + 1], ts[j], n_steps=2)
    return F, B


def _columns(a):
    """View of a (..., d) or (..., d, r) array as (..., d, r)."""
    a = np.asarray(a)
    return a[..., None] if a.ndim == 2 else a


class SweepPlan:
    """What every sweep of one direction over one mesh shares.

    Holds the panel maps in scan order, up the mesh or down it from the
    top if ``top`` (views of F and B: E0[j] and E1[j] propagate panel j's
    near point to its midpoint and its midpoint to its far point, Eh[j]
    far to mid), the signed sub-steps, the closing panels, and per
    ``_SCAN_BLOCK`` panels the ``integrate.ScanPlan`` of the panel maps
    E1[j] E0[j]: the propagator products the scan multiplies the Simpson
    terms by.  None of it depends on g, so a sweep with the plan only
    builds the Simpson terms and runs the b half of each block's scan.
    """

    def __init__(self, F, B, mesh, top):
        self.top = top
        if top:
            self.E0, self.E1, self.Eh = B[1::2][::-1], B[0::2][::-1], F[0::2][::-1]
        else:
            self.E0, self.E1, self.Eh = F[0::2], F[1::2], B[1::2]
        self.blocks = []
        if F.shape[-1] == 0:
            return  # a sweep of an empty block only returns its start value
        step = -1 if top else 1
        order = slice(None, None, step)
        h = step * np.repeat([h for _start, _ns, h in mesh.blocks],
                             [ns // 2 for _start, ns, _h in mesh.blocks])[order, None, None]
        # the knot interval each panel closes, in scan order (-1 if none)
        closes = np.full(len(h), -1)
        closes[mesh.block_ends // 2 - 1] = np.arange(len(mesh.blocks))
        closes = closes[order]
        for lo in range(0, len(h), _SCAN_BLOCK):
            sl = slice(lo, lo + _SCAN_BLOCK)
            hit = np.flatnonzero(closes[sl] >= 0)
            self.blocks.append((sl, h[sl] / 12.0, h[sl] / 3.0, hit, closes[sl][hit],
                                ScanPlan(self.E1[sl] @ self.E0[sl])))


def _accumulate(plan, gvals, size, init, g_close):
    """The panel recursion of ``plan``'s direction over a mesh of ``size``
    points.

    In scan order panel j runs from its near point through its midpoint
    to its far point with sub-step h (-h down the mesh).  Both directions
    build the same Simpson terms; only the views of the mesh arrays are
    reversed.  ``g_close`` goes into each closing panel's upper point.
    """
    out = np.empty((size,) + np.shape(init))
    order = slice(None, None, -1 if plan.top else 1)
    out[order][0] = init
    if np.shape(init)[0] == 0:
        return out
    x, g = _columns(out), _columns(gvals)
    # per panel in scan order: the near, middle and far mesh values and g
    # at the panel's lower, middle and upper points
    near, far = (x[0:-1:2][order], x[2::2][order])[order]
    mids = x[1::2][order]
    g_lo, g_mid, g_up = g[0:-1:2][order], g[1::2][order], g[2::2][order]
    if g_close is not None:
        g_close = _columns(g_close)
    for sl, h12, h3, hit, closes, scan in plan.blocks:
        g_upper = g_up[sl]
        if g_close is not None and len(hit):
            g_upper = g_upper.copy()
            g_upper[hit] = g_close[closes]
        g_near, g_far = (g_lo[sl], g_upper)[order]
        e0, e1 = plan.E0[sl], plan.E1[sl]
        # half panel [near, mid] and full panel [near, far] by Simpson
        psi0 = e0 @ g_near
        half = h12 * (5.0 * psi0 + 8.0 * g_mid[sl] - plan.Eh[sl] @ g_far)
        full = h3 * (e1 @ psi0 + 4.0 * (e1 @ g_mid[sl]) + g_far)
        scan.apply(full, near[sl.start], far[sl])
        mids[sl] = e0 @ near[sl] + half
    return out


def accumulate_forward(F, B, gvals, mesh, init, g_close=None, plan=None):
    """Values of u(t) = Prop(t, t0) init + int_{t0}^t Prop(t, s) g(s) ds.

    ``gvals`` holds g at every mesh point with shape (M, d) or (M, d, r);
    the result matches.  ``g_close[b]`` is the left-limit integrand value
    at the closing point of interval block b (defaults to the pointwise
    value).  Forward panel recursion evaluated by the blocked affine
    scan; all factors stay bounded in the contracting direction.
    ``plan`` is the ``SweepPlan(F, B, mesh, top=False)`` of earlier
    sweeps; without it one is built for this call.
    """
    if plan is None:
        plan = SweepPlan(F, B, mesh, top=False)
    return _accumulate(plan, gvals, mesh.size, init, g_close)


def accumulate_backward(F, B, gvals, mesh, init, g_close=None, plan=None):
    """Values of v(t) = Prop(t, T) init - int_t^T Prop(t, s) g(s) ds.

    Backward panel recursion from the mesh top, evaluated by the blocked
    affine scan; Prop(t_j, t_{j+1}) is the backward sub-step propagator
    B[j], bounded for the expanding block.  ``plan`` is the
    ``SweepPlan(F, B, mesh, top=True)`` of earlier sweeps; without it one
    is built for this call.
    """
    if plan is None:
        plan = SweepPlan(F, B, mesh, top=True)
    return _accumulate(plan, gvals, mesh.size, init, g_close)


class IntegralOperator:
    """The split integral operator of one window [lo, hi], on its mesh.

    ``u`` is accumulated forward from ``lo`` with the contracting block and
    ``v`` backward from ``hi`` with the expanding block.  The integrand is
    evaluated at ``points``: every mesh point, then the closing point of
    every knot interval, where the frozen argument takes its left limit.
    Holds the mesh and the four sub-step propagators ``Fp, Bp, Fm, Bm``,
    and from its first ``apply`` on the ``SweepPlan`` of each direction,
    so the propagator products of the scans are formed once for all the
    sweeps of ``iterate``.
    """

    def __init__(self, red, grid, lo, hi, substeps):
        self.k = red.k
        self.mesh = mesh = build_mesh(grid, lo, hi, substeps)
        self.Fp, self.Bp = block_propagators(red.b_plus, mesh, red.k)
        self.Fm, self.Bm = block_propagators(red.b_minus, mesh, red.m)
        self._rows = np.concatenate([np.arange(mesh.size), mesh.block_ends])
        self._beta_rows = np.concatenate([mesh.beta_idx, mesh.block_starts])
        self.points = mesh.ts[self._rows]
        self._args = None
        self._plans = None

    def arguments(self, z):
        """(z, z(beta)) at ``points``, from z on the mesh.

        Both arrays are overwritten by the next call.  Two fresh arrays of
        the mesh's size per sweep cost page faults on long meshes, which
        made whole manifold and steady-state solves 3-5% slower.
        """
        shape = (len(self.points),) + z.shape[1:]
        if self._args is None or self._args[0].shape != shape:
            self._args = (np.empty(shape), np.empty(shape))
        # the rows are in range; mode="clip" lets take write straight into out
        np.take(z, self._rows, axis=0, out=self._args[0], mode="clip")
        np.take(z, self._beta_rows, axis=0, out=self._args[1], mode="clip")
        return self._args

    def apply(self, g, u0, v0):
        """The operator on integrand values ``g`` at ``points``.

        ``g`` is (P, n) or (P, n, r); the first ``k`` columns feed the
        forward accumulation from ``u0``, the rest the backward one from
        ``v0``.  Returns the mesh values of (u, v).
        """
        M, k = self.mesh.size, self.k
        if self._plans is None:
            self._plans = (SweepPlan(self.Fp, self.Bp, self.mesh, top=False),
                           SweepPlan(self.Fm, self.Bm, self.mesh, top=True))
        plan_u, plan_v = self._plans
        gv, gc = g[:M], g[M:]
        u = accumulate_forward(self.Fp, self.Bp, gv[:, :k], self.mesh, u0, gc[:, :k], plan_u)
        v = accumulate_backward(self.Fm, self.Bm, gv[:, k:], self.mesh, v0, gc[:, k:], plan_v)
        return np.concatenate([u, v], axis=1)

    def iterate(self, integrand, z, u0, v0, tol, max_iter, rows=slice(None)):
        """Successive approximation z <- apply(integrand(points, z, z(beta))).

        Yields (z_new, d) per sweep, d the sup over the mesh ``rows`` of
        the change's norm along the state axis; stops after the first
        d <= tol and raises ConvergenceError after ``max_iter`` sweeps.
        A domain error of the integrand at any point raises at once (see
        ``expressions.raise_at_first_nonfinite``).
        """
        d = ratio = None
        for _ in range(max_iter):
            args = self.arguments(z)
            g = raise_at_first_nonfinite(integrand, integrand(self.points, *args),
                                         self.points, *args)
            z_new = self.apply(g, u0, v0)
            d_new = float(np.max(np.linalg.norm((z_new - z)[rows], axis=1)))
            ratio = d_new / d if d else None
            d = d_new
            yield z_new, d
            if d <= tol:
                return
            z = z_new
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations "
            f"(last sup change {d}, last ratio {ratio})",
            last_ratio=ratio,
        )
