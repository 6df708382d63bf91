"""The blocked affine scan of _quadrature against the panel-by-panel loop,
and the integral operator built on it."""

import numpy as np
import pytest

from epcag_lab import _quadrature
from epcag_lab._quadrature import (
    IntegralOperator,
    QuadMesh,
    SweepPlan,
    accumulate_backward,
    accumulate_forward,
    block_propagators,
    build_mesh,
)
from epcag_lab.errors import ConvergenceError
from epcag_lab.grid import make_explicit_grid, make_uniform_grid
from epcag_lab.integrate import propagator
from epcag_lab.linear import dichotomy_for_constant_A
from epcag_lab.manifold import ManifoldFn, ManifoldParams, jacobian_F, picard_stable
from epcag_lab.reduction import reduce
from epcag_lab.steady import SteadyParams, bounded_solution
from epcag_lab.system import get_problem

scipy_linalg = pytest.importorskip("scipy.linalg")


# Reference: the panel loop the scan replaces, kept verbatim.

def loop_forward(F, B, gvals, mesh, init, g_close=None):
    """Values of u(t) = Prop(t, t0) init + int_{t0}^t Prop(t, s) g(s) ds.

    ``gvals`` holds g at every mesh point with shape (M, d) or (M, d, r);
    the result matches.  ``g_close[b]`` is the left-limit integrand value
    at the closing point of interval block b (defaults to the pointwise
    value).  Forward panel recursion; all factors stay bounded in the
    contracting direction.
    """
    M = mesh.size
    out = np.empty((M,) + np.shape(init))
    out[0] = init
    if np.shape(init)[0] == 0:
        return out
    for bi, (start, ns, h) in enumerate(mesh.blocks):
        end = start + ns
        for q in range(start, end, 2):
            E0, E1 = F[q], F[q + 1]
            g0, g1 = gvals[q], gvals[q + 1]
            if q + 2 == end and g_close is not None:
                g2 = g_close[bi]
            else:
                g2 = gvals[q + 2]
            # half panel [t_q, t_{q+1}]
            psi0 = E0 @ g0
            int_half = (h / 12.0) * (5.0 * psi0 + 8.0 * g1 - B[q + 1] @ g2)
            out[q + 1] = E0 @ out[q] + int_half
            # full panel [t_q, t_{q+2}] by Simpson
            int_full = (h / 3.0) * (E1 @ psi0 + 4.0 * (E1 @ g1) + g2)
            out[q + 2] = E1 @ (E0 @ out[q]) + int_full
    return out


def loop_backward(F, B, gvals, mesh, init, g_close=None):
    """Values of v(t) = Prop(t, T) init - int_t^T Prop(t, s) g(s) ds.

    Backward panel recursion from the mesh top; Prop(t_j, t_{j+1}) is the
    backward sub-step propagator B[j], bounded for the expanding block.
    """
    M = mesh.size
    out = np.empty((M,) + np.shape(init))
    out[M - 1] = init
    if np.shape(init)[0] == 0:
        return out
    for bi, (start, ns, h) in enumerate(reversed(mesh.blocks)):
        end = start + ns
        gc = None if g_close is None else g_close[len(mesh.blocks) - 1 - bi]
        for q in range(end - 2, start - 1, -2):
            D0, D1 = B[q], B[q + 1]
            g0, g1 = gvals[q], gvals[q + 1]
            g2 = gc if (q + 2 == end and gc is not None) else gvals[q + 2]
            # half panel [t_{q+1}, t_{q+2}] seen from t_{q+1}
            f2 = D1 @ g2
            int_half = (h / 12.0) * (-(F[q] @ g0) + 8.0 * g1 + 5.0 * f2)
            out[q + 1] = D1 @ out[q + 2] - int_half
            # full panel [t_q, t_{q+2}] by Simpson seen from t_q
            int_full = (h / 3.0) * (g0 + 4.0 * (D0 @ g1) + D0 @ f2)
            out[q] = D0 @ (D1 @ out[q + 2]) - int_full
    return out


def loop_block_propagators(block, mesh, dim, micro_steps=2):
    """The constant branch of block_propagators as a round(h, 15) dict cache."""
    ts = mesh.ts
    nsub = len(ts) - 1
    F = np.empty((nsub, dim, dim))
    B = np.empty((nsub, dim, dim))
    cache = {}
    for j in range(nsub):
        h = ts[j + 1] - ts[j]
        key = round(h, 15)
        if key not in cache:
            cache[key] = (
                propagator(block, ts[j], ts[j + 1], n_steps=micro_steps),
                propagator(block, ts[j + 1], ts[j], n_steps=micro_steps),
            )
        F[j], B[j] = cache[key]
    return F, B


# Reference: the blocked scan as it ran before plans, forming the panel maps
# and the scan's matrix half in every call, kept verbatim.

def oneshot_affine_scan(A, b, x0, out):
    s = 1
    while s < len(A):
        if b is not None:
            b[s:] += A[s:] @ b[:-s]
        A[s:] = A[s:] @ A[:-s]
        s *= 2
    np.matmul(A, x0, out=out)
    if b is not None:
        out += b


def oneshot_accumulate(E0, E1, Eh, gvals, mesh, init, g_close, top):
    out = np.empty((mesh.size,) + np.shape(init))
    step = -1 if top else 1
    order = slice(None, None, step)
    out[order][0] = init
    if np.shape(init)[0] == 0:
        return out
    x, g = _quadrature._columns(out), _quadrature._columns(gvals)
    near, far = (x[0:-1:2][order], x[2::2][order])[order]
    mids = x[1::2][order]
    g_lo, g_mid, g_up = g[0:-1:2][order], g[1::2][order], g[2::2][order]
    h = step * np.repeat([h for _start, _ns, h in mesh.blocks],
                         [ns // 2 for _start, ns, _h in mesh.blocks])[order, None, None]
    closes = np.full(len(h), -1)
    closes[mesh.block_ends // 2 - 1] = np.arange(len(mesh.blocks))
    closes = closes[order]
    if g_close is not None:
        g_close = _quadrature._columns(g_close)
    for lo in range(0, len(h), _quadrature._SCAN_BLOCK):
        sl = slice(lo, lo + _quadrature._SCAN_BLOCK)
        g_upper = g_up[sl]
        hit = closes[sl] >= 0
        if g_close is not None and hit.any():
            g_upper = g_upper.copy()
            g_upper[hit] = g_close[closes[sl][hit]]
        g_near, g_far = (g_lo[sl], g_upper)[order]
        e0, e1 = E0[sl], E1[sl]
        psi0 = e0 @ g_near
        half = (h[sl] / 12.0) * (5.0 * psi0 + 8.0 * g_mid[sl] - Eh[sl] @ g_far)
        full = (h[sl] / 3.0) * (e1 @ psi0 + 4.0 * (e1 @ g_mid[sl]) + g_far)
        oneshot_affine_scan(e1 @ e0, full, near[sl.start], far[sl])
        mids[sl] = e0 @ near[sl] + half
    return out


def oneshot_forward(F, B, gvals, mesh, init, g_close=None):
    return oneshot_accumulate(F[0::2], F[1::2], B[1::2], gvals, mesh, init, g_close, top=False)


def oneshot_backward(F, B, gvals, mesh, init, g_close=None):
    return oneshot_accumulate(B[1::2][::-1], B[0::2][::-1], F[0::2][::-1], gvals, mesh, init,
                              g_close, top=True)


def n_panels(mesh):
    return (mesh.size - 1) // 2


def meshes():
    """Meshes with a partial last scan block, an exact multiple of the
    block size, a single short block, and irregular knots with a partial
    last interval."""
    K = _quadrature._SCAN_BLOCK
    unit = make_uniform_grid(1.0, window=(-1.0, 40.0))
    irregular = make_explicit_grid(np.cumsum([0.0, 0.7, 1.1, 0.45, 1.6, 0.9, 1.3]))
    out = {
        "partial": build_mesh(unit, 0.0, 5.3, 64),
        "multiple": build_mesh(unit, 0.0, 2.0 * K / 32, 64),
        "short": build_mesh(unit, 0.0, 1.0, 16),
        "irregular": build_mesh(irregular, 0.0, 5.0, 24),
    }
    assert n_panels(out["partial"]) % K and n_panels(out["partial"]) > K
    assert n_panels(out["multiple"]) == 2 * K
    assert n_panels(out["short"]) < K
    return out


MESHES = meshes()


def props(mesh, d, sign, rng):
    """F, B from expm of a random block whose flow contracts in ``sign``."""
    if d == 0:
        e = np.empty((mesh.size - 1, 0, 0))
        return e, e.copy()
    A = 0.3 * rng.standard_normal((d, d)) + sign * 1.5 * np.eye(d)
    hs = np.diff(mesh.ts)
    F = np.array([scipy_linalg.expm(A * h) for h in hs])
    B = np.array([scipy_linalg.expm(-A * h) for h in hs])
    return F, B


def rel_diff(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-300) if b.size else 1.0
    return float(np.max(np.abs(a - b))) / scale if b.size else 0.0


CASES = [(mesh, d, r, close)
         for mesh in MESHES
         for d in (0, 1, 2, 4)
         for r in (None, 3)
         for close in (False, True)]


@pytest.mark.parametrize("mesh_name,d,r,close", CASES)
def test_scan_matches_panel_loop(mesh_name, d, r, close):
    mesh = MESHES[mesh_name]
    rng = np.random.default_rng([d, 0 if r is None else r, int(close), len(mesh.ts)])
    tail = (d,) if r is None else (d, r)
    gvals = rng.standard_normal((mesh.size,) + tail)
    g_close = rng.standard_normal((len(mesh.blocks),) + tail) if close else None
    init = rng.standard_normal(tail)
    for sign, new, ref in ((-1.0, accumulate_forward, loop_forward),
                           (1.0, accumulate_backward, loop_backward)):
        F, B = props(mesh, d, sign, rng)
        got = new(F, B, gvals, mesh, init, g_close)
        want = ref(F, B, gvals, mesh, init, g_close)
        assert got.shape == want.shape
        if d:
            assert rel_diff(got, want) <= 1e-12, (new.__name__, rel_diff(got, want))


def test_scan_does_not_write_its_inputs():
    mesh = MESHES["partial"]
    rng = np.random.default_rng(5)
    d, r = 2, 3
    F, B = props(mesh, d, -1.0, rng)
    gvals = rng.standard_normal((mesh.size, d, r))
    g_close = rng.standard_normal((len(mesh.blocks), d, r))
    init = rng.standard_normal((d, r))
    arrays = (F, B, gvals, init, g_close)
    saved = [a.copy() for a in arrays]
    for a in arrays:
        a.setflags(write=False)
    accumulate_forward(F, B, gvals, mesh, init, g_close)
    accumulate_backward(F, B, gvals, mesh, init, g_close)
    for a, s in zip(arrays, saved):
        assert np.array_equal(a, s)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("d", [1, 2, 4])
def test_constant_block_propagators_match_cache_loop(mesh_name, d):
    mesh = MESHES[mesh_name]
    A = np.random.default_rng(d).standard_normal((d, d))
    F, B = block_propagators(A, mesh, d)
    F_ref, B_ref = loop_block_propagators(A, mesh, d)
    assert np.array_equal(F, F_ref)
    assert np.array_equal(B, B_ref)


def test_block_propagators_zero_dim_shape():
    mesh = MESHES["short"]
    F, B = block_propagators(np.zeros((0, 0)), mesh, 0)
    assert F.shape == B.shape == (mesh.size - 1, 0, 0)


def reduced(name, **kw):
    spec = get_problem(name, **kw)
    return reduce(spec, dichotomy_for_constant_A(spec.a_constant))


@pytest.mark.parametrize("name,kw,lo,hi", [
    ("diag-dichotomy", dict(coupling=0.3), 0.0, 6.5),
    ("diag-dichotomy", dict(coupling=0.3, coupling_arg="state"), -4.0, 3.0),
    ("forced-scalar", dict(feedback=0.2), 1.0, 4.0),
])
@pytest.mark.parametrize("r", [None, 2])
def test_integral_operator_matches_two_call_operator(name, kw, lo, hi, r):
    red = reduced(name, **kw)
    op = IntegralOperator(red, red.spec.grid, lo, hi, 16)
    mesh, k = op.mesh, red.k
    rng = np.random.default_rng(len(mesh.ts))
    tail = (red.n,) if r is None else (red.n, r)
    z = rng.standard_normal((mesh.size,) + tail)
    u0 = rng.standard_normal((k,) + tail[1:])
    v0 = rng.standard_normal((red.m,) + tail[1:])
    if r is None:
        def g(t, z, zb):
            return red.g(t, z, zb)
    else:
        D = rng.standard_normal((red.n, red.n))

        def g(t, z, zb):
            return D @ z + np.sin(t)[:, None, None] * zb
    # by hand: g on the mesh, then again at the closing points with the
    # left-limit frozen value, then the two accumulations
    starts, ends = mesh.block_starts, mesh.block_ends
    gv = g(mesh.ts, z, z[mesh.beta_idx])
    gc = g(mesh.ts[ends], z[ends], z[starts])
    want = np.concatenate([
        accumulate_forward(op.Fp, op.Bp, gv[:, :k], mesh, u0, gc[:, :k]),
        accumulate_backward(op.Fm, op.Bm, gv[:, k:], mesh, v0, gc[:, k:]),
    ], axis=1)
    got = op.apply(g(op.points, *op.arguments(z)), u0, v0)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("solve", [
    lambda: picard_stable(reduced("diag-dichotomy", coupling=0.02), 0.0, [0.5],
                          ManifoldParams(max_iter=2)),
    lambda: bounded_solution(reduced("forced-scalar", feedback=0.1), window=(0.0, 3.0),
                             params=SteadyParams(max_iter=2)),
    lambda: jacobian_F(ManifoldFn(reduced("diag-dichotomy", coupling=0.02)), 0.0, [0.5],
                       max_iter=2),
], ids=["picard", "steady", "variational"])
def test_iteration_budget_exhausted_raises_convergence_error(solve):
    with pytest.raises(ConvergenceError) as info:
        solve()
    assert 0.0 < info.value.last_ratio < 1.0


def varying_props(mesh, d, sign, rng):
    """F, B from expm of a block A(t) that changes at every sub-step."""
    A0 = 0.3 * rng.standard_normal((d, d)) + sign * 1.5 * np.eye(d)
    A1 = 0.3 * rng.standard_normal((d, d))
    mids = 0.5 * (mesh.ts[1:] + mesh.ts[:-1])
    hs = np.diff(mesh.ts)
    F = np.array([scipy_linalg.expm((A0 + np.sin(t) * A1) * h) for t, h in zip(mids, hs)])
    B = np.array([scipy_linalg.expm(-(A0 + np.sin(t) * A1) * h) for t, h in zip(mids, hs)])
    return F, B


def constant_props(mesh, d, sign, rng):
    """F, B of a constant (array) block, as ``IntegralOperator`` builds them."""
    A = 0.3 * rng.standard_normal((d, d)) + sign * 1.5 * np.eye(d)
    return block_propagators(A, mesh, d)


PLAN_CASES = [(mesh, d, r, kind)
              for mesh in MESHES
              for d in (1, 2, 4)
              for r in (None, 3)
              for kind in ("expm", "constant", "varying")]


@pytest.mark.parametrize("mesh_name,d,r,kind", PLAN_CASES)
def test_planned_sweeps_equal_one_shot_scan_bitwise(mesh_name, d, r, kind):
    """One plan reused over several integrands gives, bit for bit, what the
    scan that forms every product in each call gives."""
    mesh = MESHES[mesh_name]
    make = {"expm": props, "constant": constant_props, "varying": varying_props}[kind]
    rng = np.random.default_rng([d, 0 if r is None else r, len(mesh.ts), len(kind)])
    tail = (d,) if r is None else (d, r)
    for sign, top, new, ref in ((-1.0, False, accumulate_forward, oneshot_forward),
                                (1.0, True, accumulate_backward, oneshot_backward)):
        F, B = make(mesh, d, sign, rng)
        plan = SweepPlan(F, B, mesh, top)
        if kind == "varying":
            # no two panel maps are equal, so no level collapses
            assert all(M.ndim == 3 for *_, scan in plan.blocks for _s, M in scan.levels)
        for close in (False, True, True):
            gvals = rng.standard_normal((mesh.size,) + tail)
            g_close = rng.standard_normal((len(mesh.blocks),) + tail) if close else None
            init = rng.standard_normal(tail)
            want = ref(F, B, gvals, mesh, init, g_close)
            assert np.array_equal(new(F, B, gvals, mesh, init, g_close, plan), want)
            assert np.array_equal(new(F, B, gvals, mesh, init, g_close), want)


def plan_bytes(plan):
    """Bytes of the arrays a ``SweepPlan`` holds itself (E0, E1, Eh are views)."""
    return sum(h12.nbytes + h3.nbytes + hit.nbytes + closes.nbytes + scan.A.nbytes
               + sum(M.nbytes for _s, M in scan.levels)
               for _sl, h12, h3, hit, closes, scan in plan.blocks)


@pytest.mark.parametrize("d", [1, 2, 4, 8])
def test_plan_of_a_constant_block_is_smaller_than_its_propagators(d):
    unit = make_uniform_grid(1.0, window=(-1.0, 40.0))
    mesh = build_mesh(unit, 0.0, 30.0, 64)
    A = 0.3 * np.random.default_rng(d).standard_normal((d, d)) - 1.5 * np.eye(d)
    F, B = block_propagators(A, mesh, d)
    for top in (False, True):
        plan = SweepPlan(F, B, mesh, top)
        # every level of every full scan block collapses to one matrix
        full = [scan for sl, *_, scan in plan.blocks
                if len(scan.A) == _quadrature._SCAN_BLOCK]
        assert len(full) > 1
        assert all(M.shape == (d, d) for scan in full for _s, M in scan.levels)
        assert plan_bytes(plan) < F.nbytes + B.nbytes


def test_operator_builds_each_directions_plan_once(monkeypatch):
    built = []

    class CountingPlan(SweepPlan):
        def __init__(self, F, B, mesh, top):
            built.append(top)
            super().__init__(F, B, mesh, top)

    monkeypatch.setattr(_quadrature, "SweepPlan", CountingPlan)
    red = reduced("forced-scalar", feedback=0.2)
    op = IntegralOperator(red, red.spec.grid, 0.0, 12.0, 64)
    z = np.zeros((op.mesh.size, red.n))
    sweeps = list(op.iterate(red.g, z, np.zeros(red.k), np.zeros(red.m), 1e-12, 200))
    assert len(sweeps) > 3
    assert sorted(built) == [False, True]


def test_every_sweep_goes_through_the_module_level_accumulators(monkeypatch):
    """Counting wrappers on the module's accumulators, installed the way
    perfbench's tracer installs them, see every sweep and the mesh at
    argument 3."""
    seen = {"accumulate_forward": [], "accumulate_backward": []}
    for name, calls in seen.items():
        def wrapper(*args, _inner=getattr(_quadrature, name), _calls=calls, **kwargs):
            _calls.append(args[3])
            return _inner(*args, **kwargs)

        monkeypatch.setattr(_quadrature, name, wrapper)
    sweeps = []
    apply = IntegralOperator.apply

    def counting_apply(self, g, u0, v0):
        sweeps.append(self.mesh)
        return apply(self, g, u0, v0)

    monkeypatch.setattr(IntegralOperator, "apply", counting_apply)
    res = bounded_solution(reduced("forced-scalar", feedback=0.1), window=(0.0, 3.0))
    assert len(sweeps) >= res.iterations > 1
    for calls in seen.values():
        assert len(calls) == len(sweeps)
        assert all(mesh is swept for mesh, swept in zip(calls, sweeps))
        assert all(isinstance(mesh, QuadMesh) for mesh in calls)
