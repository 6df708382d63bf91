import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epcag_lab import expressions, integrate, solver
from epcag_lab.errors import BlowUpError, EpcagError, InvalidParameterError
from epcag_lab.grid import make_uniform_grid
from epcag_lab.solver import (
    back_continue,
    back_continue_interval,
    shooting_map,
    solve_forward,
)
from epcag_lab.system import REGISTRY_NAMES, SystemSpec, get_problem, parse_system

E2 = math.exp(2.0)


def _linear_spec(A, window=(-5.0, 5.0)):
    A = np.asarray(A, dtype=float)
    return SystemSpec(
        n=A.shape[0], A=lambda t: A, f=lambda t, y, w: np.zeros_like(y),
        grid=make_uniform_grid(1.0, 0.0, window),
        mu=float(np.linalg.norm(A, 2)), lip=0.0, a_constant=A,
    )


def ex1_map(x0, t=1.0):
    """Variation-of-constants for x' = 2x - c, c frozen at x0^2."""
    return math.exp(2 * t) * x0 - (math.exp(2 * t) - 1.0) * x0 ** 2 / 2.0


def ex1_roots(z):
    a, b, c = E2 - 1.0, -2.0 * E2, 2.0 * z
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    r = math.sqrt(disc)
    return sorted({(-b - r) / (2 * a), (-b + r) / (2 * a)})


def test_forward_zero_nonlinearity_is_linear_flow():
    spec = _linear_spec(np.diag([-1.0, 1.0]))
    path = solve_forward(spec, 0.0, [1.0, 1.0], 1.0)
    assert np.allclose(path.ys[-1], [math.exp(-1.0), math.exp(1.0)], atol=1e-9)


def test_forward_example1_closed_form():
    spec = get_problem("paper-example-1")
    for x0 in (-1.5, 0.3, 1.0, 2.0):
        path = solve_forward(spec, 0.0, [x0], 1.0, substeps=256)
        assert path.ys[-1][0] == pytest.approx(ex1_map(x0), rel=1e-9)
    path = solve_forward(spec, 0.0, [1.0], 1.0, substeps=256)
    assert path.ys[-1][0] == pytest.approx(4.194528049465325, rel=1e-8)


def test_forward_equilibrium_at_zero():
    spec = get_problem("paper-example-1")
    path = solve_forward(spec, 0.0, [0.0], 5.0)
    assert np.all(path.ys == 0.0)


def test_forward_interior_start_needs_frozen_value():
    spec = get_problem("paper-example-1")
    with pytest.raises(InvalidParameterError):
        solve_forward(spec, 0.5, [1.0], 2.0)
    path = solve_forward(spec, 0.5, [1.0], 1.0, w0=[0.8])
    # on [0.5, 1): x' = 2x - 0.64
    t = 0.5
    exact = math.exp(2 * t) * 1.0 - (math.exp(2 * t) - 1) * 0.64 / 2.0
    assert path.ys[-1][0] == pytest.approx(exact, rel=1e-8)


def test_forward_continuity_at_knots():
    spec = get_problem("paper-example-1")
    path = solve_forward(spec, 0.0, [0.5], 3.0)
    # knots are stored twice (corner copies) with identical states
    dup = np.flatnonzero(np.diff(path.ts) == 0.0)
    assert len(dup) == 2
    for j in dup:
        assert np.array_equal(path.ys[j], path.ys[j + 1])
        assert path.intervals[j] + 1 == path.intervals[j + 1]


def test_forward_frozen_argument_updates():
    spec = get_problem("paper-example-1")
    path = solve_forward(spec, 0.0, [0.5], 2.0)
    tk, yk = path.at_knots()
    assert list(tk) == [0.0, 1.0, 2.0]
    # frozen value on [1, 2) equals the state at t = 1
    j = np.flatnonzero(path.ts == 1.0)[-1]
    assert path.frozen[j][0] == yk[1][0]


def test_collocation_residual_on_hermite_interpolant():
    spec = get_problem("paper-example-1")
    path = solve_forward(spec, 0.0, [0.8], 2.0, substeps=64)
    rng = np.random.default_rng(3)
    h = 1.0 / 64
    for _ in range(40):
        j = rng.integers(0, len(path.ts) - 1)
        if path.ts[j + 1] == path.ts[j]:
            continue
        tm = 0.5 * (path.ts[j] + path.ts[j + 1])
        ym = path.value(tm)
        w = path.frozen[j]
        rhs = spec.eval_A(tm) @ ym + spec.eval_f(tm, ym, w)
        dy = (path.value(tm + h / 4) - path.value(tm - h / 4)) / (h / 2)
        assert np.linalg.norm(dy - rhs) <= 1e-4 * (1 + np.linalg.norm(rhs))


def test_semigroup_on_knots():
    spec = get_problem("paper-example-1")
    p1 = solve_forward(spec, 0.0, [0.7], 1.0)
    p2 = solve_forward(spec, 1.0, p1.ys[-1], 2.0)
    direct = solve_forward(spec, 0.0, [0.7], 2.0)
    assert p2.ys[-1][0] == pytest.approx(direct.ys[-1][0], abs=1e-10)


def test_convergence_order_fourth():
    spec = get_problem("paper-example-1")
    errs = []
    for ss in (32, 64):
        path = solve_forward(spec, 0.0, [1.0], 1.0, substeps=ss)
        errs.append(abs(path.ys[-1][0] - ex1_map(1.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_blowup_guard():
    spec = _linear_spec(np.array([[5.0]]), window=(0.0, 500.0))
    with pytest.raises(BlowUpError):
        solve_forward(spec, 0.0, [1.0], 500.0, guard=1e6)


def test_shooting_map_examples():
    spec = get_problem("paper-example-1")
    assert shooting_map(spec, 0, [1.0], substeps=256)[0] == pytest.approx(
        ex1_map(1.0), rel=1e-9)
    assert shooting_map(spec, 0, [0.0])[0] == 0.0
    lin = _linear_spec(np.diag([-1.0, 1.0]))
    got = shooting_map(lin, 0, [1.0, 2.0])
    assert np.allclose(got, [math.exp(-1.0), 2 * math.exp(1.0)], atol=1e-9)


def test_preimages_match_quadratic_oracle():
    spec = get_problem("paper-example-1")
    ps = back_continue_interval(spec, 0, 1.0, [0.0], substeps=128)
    assert ps.classification == "multiple"
    want = ex1_roots(0.0)
    got = sorted(p[0] for p in ps.preimages)
    assert got == pytest.approx(want, abs=1e-6)
    assert want[1] == pytest.approx(2 * E2 / (E2 - 1.0))


def test_preimages_none_beyond_threshold():
    spec = get_problem("paper-example-1")
    z_thresh = E2 ** 2 / (2 * (E2 - 1.0))
    ps = back_continue_interval(spec, 0, 1.0, [z_thresh + 0.5], substeps=64)
    assert ps.classification == "none"
    assert ps.search_exhausted
    assert ps.preimages == []


def test_preimage_linear_flow_unique():
    spec = _linear_spec(np.diag([-1.0, 1.0]))
    target = np.array([0.4, -0.9])
    ps = back_continue_interval(spec, 0, 1.0, target, substeps=64)
    assert ps.classification == "unique"
    want = np.diag([math.exp(1.0), math.exp(-1.0)]) @ target
    assert np.allclose(ps.preimages[0], want, atol=1e-7)


def test_preimage_interior_target():
    spec = get_problem("paper-example-1")
    ps = back_continue_interval(spec, 0, 0.5, [1.0], substeps=128)
    assert ps.classification in ("unique", "multiple")
    for p in ps.preimages:
        fwd = solve_forward(spec, 0.0, p, 0.5, substeps=128)
        assert abs(fwd.ys[-1][0] - 1.0) <= 1e-7


def test_preimage_validates_target_time():
    spec = get_problem("paper-example-1")
    with pytest.raises(InvalidParameterError):
        back_continue_interval(spec, 0, 1.5, [0.0])


def test_back_continue_linear_reproduces_flow():
    spec = _linear_spec(np.diag([-1.0, 1.0]))
    res = back_continue(spec, 2.0, [1.0, 1.0], 0.0)
    assert res.ok and not res.flags
    want = np.diag([math.exp(2.0), math.exp(-2.0)]) @ np.array([1.0, 1.0])
    assert np.allclose(res.path.ys[0], want, atol=1e-6)
    assert res.residual <= 1e-8


def test_back_continue_example1_non_unique_branch():
    spec = get_problem("paper-example-1")
    res = back_continue(spec, 1.0, [0.0], 0.0, substeps=128)
    assert res.ok
    assert any("non-unique" in f for f in res.flags)
    roots = sorted(p[0] for p in res.steps[0].preimages)
    assert roots == pytest.approx(ex1_roots(0.0), abs=1e-6)
    # pair sums to 2e^2/(e^2-1), mirroring the collision identity
    assert sum(roots) == pytest.approx(2 * E2 / (E2 - 1.0), abs=1e-6)


def test_back_continue_failure_reports_interval():
    spec = get_problem("paper-example-1")
    res = back_continue(spec, 1.0, [6.0], 0.0, substeps=64)
    assert not res.ok
    assert res.failed_interval == 0
    assert res.steps[-1].classification == "none"


def test_round_trip_under_uniqueness():
    spec = get_problem("periodic-coupled")
    rng = np.random.default_rng(4)
    for _ in range(10):
        x0 = rng.uniform(-2, 2, 1)
        res = back_continue(spec, 1.5, x0, 0.5, substeps=64)
        assert res.ok and not res.flags
        fwd = solve_forward(spec, 0.5, res.path.value(0.5), 1.5, substeps=64)
        assert abs(fwd.ys[-1][0] - x0[0]) <= 1e-6


def test_uniqueness_property_under_bw():
    spec = get_problem("periodic-coupled")
    rng = np.random.default_rng(5)
    for _ in range(20):
        i = int(rng.integers(0, 4))
        x = rng.uniform(-3, 3, 1)
        ps = back_continue_interval(spec, i, spec.grid.knot(i + 1), x, substeps=64)
        assert ps.classification == "unique"


@settings(max_examples=60, deadline=None)
@given(i=st.integers(0, 3), frac=st.floats(0.1, 1.0), x=st.floats(-3.0, 3.0))
def test_round_trip_on_periodic_coupled(i, frac, x):
    # the backward-uniqueness inequality holds, so every search is unique
    spec = get_problem("periodic-coupled")
    a, b = spec.grid.knot(i), spec.grid.knot(i + 1)
    t_target = a + frac * (b - a)
    ps = back_continue_interval(spec, i, t_target, [x], substeps=64)
    assert ps.classification == "unique"
    path = solve_forward(spec, a, ps.preimages[0], t_target, substeps=64)
    assert abs(path.ys[-1][0] - x) <= 1e-6


DOMAIN_ERROR_CONFIG = """
[system]
n = 2
A11 = -0.5
A12 = 0.3
A21 = -0.2
A22 = 0.4
f1 = 0.01/(1 + w1^2) + 0.001*y1/w1
f2 = 0.01*cos(w1) - 0.01*sin(y1)
[grid]
step = 1.0
window = 0 4
[constants]
mu = 0.75
lip = 0.03
"""


def test_domain_error_of_one_start_stays_row_local():
    # w1 = 0 lies on the start lattice, where f1 divides by zero
    spec = parse_system(DOMAIN_ERROR_CONFIG)
    target = np.array([0.3, -0.2])
    ps = back_continue_interval(spec, 0, 1.0, target)
    assert ps.classification == "unique"
    image = solve_forward(spec, 0.0, ps.preimages[0], 1.0).ys[-1]
    assert np.linalg.norm(image - target) <= 1e-9 * (1.0 + np.linalg.norm(target))


def test_solution_path_value_interpolation():
    spec = get_problem("paper-example-1")
    path = solve_forward(spec, 0.0, [0.6], 1.0, substeps=64)
    for t in (0.0, 0.25, 0.515625, 1.0):
        exact = ex1_map(0.6, t)
        assert path.value(t)[0] == pytest.approx(exact, rel=1e-7)


CONST_F_CONFIG = """
[system]
n = 2
A11 = -0.5
A12 = 0.25
A22 = 0.75
f1 = 0.3
f2 = 0.1*sin(w1) - 0.05*y2*w2

[grid]
kind = uniform
step = 1.0
offset = 0.0
window = -3 3

[constants]
mu = 1.0
lip = 0.2
"""


def _scalar_f_spec():
    A = np.array([[-1.0, 0.5], [0.0, 0.4]])
    return SystemSpec(
        n=2, A=lambda t: A, f=lambda t, y, w: 0.3,
        grid=make_uniform_grid(1.0, 0.0, (-3.0, 3.0)),
        mu=float(np.linalg.norm(A, 2)), lip=0.0, a_constant=A,
    )


def _nonsymmetric_spec():
    # constant A that is neither diagonal nor symmetric, nonlinear frozen coupling
    A = np.array([[0.3, 1.0], [-0.5, 0.2]])

    def f(t, y, w):
        return np.stack([0.2 * np.sin(w[..., 1]), 0.1 * w[..., 0] ** 2], axis=-1)

    return SystemSpec(
        n=2, A=lambda t: A, f=f, grid=make_uniform_grid(1.0, 0.0, (-5.0, 5.0)),
        mu=float(np.linalg.norm(A, 2)), lip=0.5, a_constant=A,
    )


_CONST_A_SPECS = {name: (lambda name=name: get_problem(name)) for name in REGISTRY_NAMES}
_CONST_A_SPECS["config-constant-f"] = lambda: parse_system(CONST_F_CONFIG)
_CONST_A_SPECS["scalar-f"] = _scalar_f_spec


@pytest.mark.parametrize("key", list(_CONST_A_SPECS))
def test_constant_A_path_matches_generic_path(key):
    spec = _CONST_A_SPECS[key]()
    assert spec.a_constant is not None
    generic = dataclasses.replace(spec, a_constant=None)
    grid = spec.grid
    i = grid.interval_index(grid.window[0])
    x0 = np.linspace(0.4, -0.7, spec.n)
    assert np.array_equal(shooting_map(spec, i, x0), shooting_map(generic, i, x0))
    t0, t1 = grid.knot(i), grid.knot(i + 2)
    fast = solve_forward(spec, t0, x0, t1, substeps=16)
    slow = solve_forward(generic, t0, x0, t1, substeps=16)
    for attr in ("ts", "ys", "derivs", "frozen", "intervals"):
        assert np.array_equal(getattr(fast, attr), getattr(slow, attr)), attr


def test_back_continue_nonsymmetric_A_batched_jacobian():
    spec = _nonsymmetric_spec()
    x_true = np.array([0.4, -0.3])
    target = shooting_map(spec, 1, x_true)
    ps = back_continue_interval(spec, 1, 2.0, target)
    assert ps.classification != "none"
    tol_abs = 1e-9 * (1.0 + np.linalg.norm(target))
    for p in ps.preimages:
        assert np.linalg.norm(shooting_map(spec, 1, p) - target) <= tol_abs
    assert min(np.linalg.norm(p - x_true) for p in ps.preimages) <= 1e-6


def _counting_phi(monkeypatch, spec, i, t_target, substeps=64):
    """phi as back_continue_interval builds it, with _phi_batch calls logged."""
    calls = []
    inner = solver._phi_batch

    def counted(spec, i, X, t_target, substeps):
        calls.append(len(X))
        return inner(spec, i, X, t_target, substeps)

    monkeypatch.setattr(solver, "_phi_batch", counted)
    return (lambda X: solver._phi_batch(spec, i, X, t_target, substeps)), calls


# Reference: the search and its polish as two Newton implementations, with
# the search-then-polish sequence of back_continue_interval, kept verbatim.

def ref_fd_jacobian(phi, X, fd_scale, with_base=False):
    """Central-difference Jacobians of phi at the rows of X, shape (m, n, n).

    The 2n probes of every row (and, with ``with_base``, the rows of X
    themselves, returned as a second value) go to phi in a single batch.
    """
    m, n = X.shape
    h = fd_scale * (1.0 + np.abs(X))  # (m, n): step of coordinate k in row q
    E = np.zeros((n, m, n))
    E[np.arange(n), :, np.arange(n)] = h.T
    probes = [X + E, X - E]  # (n, m, n) each: probe k of row q at [k, q]
    if with_base:
        probes.append(X[None])
    F = phi(np.concatenate(probes).reshape(-1, n))
    F = F.reshape(-1, m, n)
    J = ((F[:n] - F[n:2 * n]) / (2.0 * h.T[:, :, None])).transpose(1, 2, 0)
    if with_base:
        return J, F[2 * n]
    return J


def ref_newton_roots(phi, x_target, starts, tol_abs, max_iter, max_halvings,
                     fd_scale=1e-6):
    """Batched damped Newton; returns converged roots (may contain duplicates).

    Each iteration makes at most three phi calls: the 2n probes of every
    active row, the full Newton step, and every halving of the rows that
    the full step did not improve.
    """
    n = starts.shape[1]
    X = starts.astype(float).copy()
    alive = np.ones(len(X), dtype=bool)
    roots = []

    def residual(Z):
        r = phi(Z) - x_target
        rn = np.linalg.norm(r, axis=1)
        rn[~np.isfinite(rn)] = np.inf
        return r, rn

    def try_steps(idx, step, lams):
        """Damped trials X[idx] + lam*step for every lam in one phi call.

        Each row takes the first lam, in the given order, that reduces its
        residual (or meets the tolerance); returns the mask of rows that
        accepted none.
        """
        L, m = len(lams), len(idx)
        cand = X[idx] + lams[:, None, None] * step  # (L, m, n)
        r_c, rn_c = residual(cand.reshape(-1, n))
        r_c, rn_c = r_c.reshape(L, m, n), rn_c.reshape(L, m)
        ok = (rn_c < rn[idx] * (1.0 - 1e-4)) | (rn_c <= tol_abs)
        hit = ok.any(axis=0)
        pick = ok.argmax(axis=0)[hit], np.flatnonzero(hit)
        sel = idx[hit]
        X[sel], r[sel], rn[sel] = cand[pick], r_c[pick], rn_c[pick]
        return ~hit

    r, rn = residual(X)
    for _ in range(max_iter):
        act = np.flatnonzero(alive & (rn > tol_abs) & np.isfinite(rn))
        if len(act) == 0:
            break
        J = ref_fd_jacobian(phi, X[act], fd_scale)
        bad = ~np.isfinite(J).all(axis=(1, 2))
        try:
            delta = np.linalg.solve(
                np.where(bad[:, None, None], np.eye(n), J), -r[act][..., None]
            )[..., 0]
        except np.linalg.LinAlgError:
            delta = np.stack([
                np.zeros(n) if bad[q] else np.linalg.lstsq(J[q], -r[act][q],
                                                           rcond=None)[0]
                for q in range(len(act))
            ])
        delta[bad] = 0.0
        alive_idx = act[~bad]
        alive[act[bad]] = False
        if len(alive_idx) == 0:
            continue
        step = delta[~bad]
        rest = try_steps(alive_idx, step, np.ones(1))
        if max_halvings and rest.any():
            rest[rest] = try_steps(alive_idx[rest], step[rest],
                                   0.5 ** np.arange(1, max_halvings + 1))
        alive[alive_idx[rest]] = False  # stalled: no descent possible

    for q in np.flatnonzero(rn <= tol_abs):
        roots.append((X[q], float(rn[q])))
    return roots


def ref_polish_root(phi, x_target, x, rq, steps=10, fd_scale=1e-6):
    """Plain Newton refinement; sharpens simple roots to machine level and
    crawls double roots as close as the residual floor allows.

    Each trial point is evaluated together with its own probes, so an
    accepted step already holds the next step's Jacobian: one phi call
    per step.
    """
    J, base = ref_fd_jacobian(phi, x[None], fd_scale, with_base=True)
    for _ in range(steps):
        try:
            d = np.linalg.solve(J[0], -(base[0] - x_target))
        except np.linalg.LinAlgError:
            break
        x_new = x + d
        J_new, base_new = ref_fd_jacobian(phi, x_new[None], fd_scale, with_base=True)
        r_new = float(np.linalg.norm(base_new[0] - x_target))
        if not np.isfinite(r_new) or r_new >= rq:
            break
        x, rq, J, base = x_new, r_new, J_new, base_new
    return x, rq


def ref_preimages(spec, i, t_target, x_target, substeps=64, root_tol=1e-9):
    """(classification, preimages, residuals) by the reference sequence."""
    x_target = np.asarray(x_target, dtype=float).reshape(spec.n)
    R = max(10.0, 10.0 * float(np.linalg.norm(x_target)))
    axes = [np.linspace(-R, R, 17)] * spec.n
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=1)
    tol_abs = root_tol * (1.0 + float(np.linalg.norm(x_target)))

    phi = lambda X: solver._phi_batch(spec, i, X, t_target, substeps)
    found = ref_newton_roots(phi, x_target, starts, tol_abs, 50, 8)

    def dedupe(items):
        # smallest-norm first, greedy by the clustering radius
        items = sorted(items, key=lambda xr: (np.linalg.norm(xr[0]), tuple(xr[0])))
        kept = []
        for x, rq in items:
            radius = 1e-5 * (1.0 + np.linalg.norm(x))
            if all(np.linalg.norm(x - p) > radius for p, _ in kept):
                kept.append((x, rq))
        return kept

    polished = [ref_polish_root(phi, x_target, x, rq) for x, rq in dedupe(found)]
    kept = dedupe(polished)
    preimages = [x for x, _ in kept]
    residuals = [rq for _, rq in kept]
    classification = {0: "none", 1: "unique"}.get(len(preimages), "multiple")
    return classification, preimages, residuals


N2_CONFIG = """
[system]
n = 2
A11 = -0.5
A12 = 0.3
A21 = -0.2
A22 = 0.4
f1 = 0.02*sin(w2) + 0.01*y2*cos(t)
f2 = 0.01*cos(w1) - 0.01*sin(y1)
[grid]
step = 1.0
window = 0 4
[constants]
mu = 0.75
lip = 0.03
"""


def _c03_cases():
    # c03's 50 targets, drawn as the criterion draws them for seed 0
    e1 = get_problem("paper-example-1")
    rng = np.random.default_rng(2)
    cases = []
    while len(cases) < 50:
        z = rng.uniform(-6.0, 6.0)
        if abs(z - E2 ** 2 / (2.0 * (E2 - 1.0))) > 0.05:
            cases.append((e1, 0, 1.0, [z], 128))
    return cases


def _n2_cases():
    n2 = parse_system(N2_CONFIG)
    return [(n2, 0, 1.0, solve_forward(n2, 0.0, x, 1.0).ys[-1], 64)
            for x in ([0.7, -1.2], [-1.4, 0.3], [0.2, 1.1])]


def _nonsymmetric_case():
    ns = _nonsymmetric_spec()
    return [(ns, 1, 2.0, shooting_map(ns, 1, np.array([0.4, -0.3])), 64)]


_REFERENCE_CASES = {
    "c03-targets": _c03_cases,
    "double-root": lambda: [(get_problem("paper-example-1"), 0, 1.0,
                             [E2 ** 2 / (2.0 * (E2 - 1.0))], 128)],
    "nonsymmetric": _nonsymmetric_case,
    "config-n2": _n2_cases,
    "domain-error": lambda: [(parse_system(DOMAIN_ERROR_CONFIG), 0, 1.0, [0.3, -0.2], 64)],
}


@pytest.mark.parametrize("key", list(_REFERENCE_CASES))
def test_newton_kernel_matches_reference_bit_for_bit(key):
    for spec, i, t_target, x_target, substeps in _REFERENCE_CASES[key]():
        ps = back_continue_interval(spec, i, t_target, x_target, substeps=substeps)
        cls, preimages, residuals = ref_preimages(spec, i, t_target, x_target, substeps)
        assert ps.classification == cls
        assert len(ps.preimages) == len(preimages)
        for got, want in zip(ps.preimages, preimages):
            assert np.array_equal(got, want)
        assert ps.residuals == residuals


# (spec, target, starts from which every full step is accepted, starts
# that also need halvings)
_PROBE_CASES = {
    1: (lambda: get_problem("paper-example-1"), [1.0],
        [[-3.0], [0.5], [3.0]], [[-3.0], [0.5], [1.2], [3.0]]),
    2: (_nonsymmetric_spec, [0.6, -0.2],
        [[-2.0, 1.0], [0.5, 0.5], [2.0, -1.5]],
        [[-2.0, 1.0], [0.5, 0.5], [2.0, -1.5], [30.0, -20.0]]),
}


def _calls_per_iteration(monkeypatch, n, starts):
    """Row counts of the _phi_batch calls of each search iteration, read
    off runs stopped after 1, 2, ... iterations."""
    make, x_target = _PROBE_CASES[n][:2]
    phi, calls = _counting_phi(monkeypatch, make(), 0, 1.0)
    per_iteration, seen = [], 1  # the first call evaluates the starts
    for max_iter in range(1, 30):
        calls.clear()
        rows = solver._NewtonRows.at(phi, np.array(x_target), np.array(starts))
        solver._newton(phi, np.array(x_target), rows, 1e-9, max_iter, 8, 1e-4)
        assert calls[0] == (2 * n + 1) * len(starts)
        if len(calls) == seen:
            return per_iteration
        per_iteration.append(calls[seen:])
        seen = len(calls)
    raise AssertionError("the search did not stop")


@pytest.mark.parametrize("n", [1, 2])
def test_newton_iteration_without_halvings_makes_one_phi_call(monkeypatch, n):
    per_iteration = _calls_per_iteration(monkeypatch, n, _PROBE_CASES[n][2])
    assert len(per_iteration) >= 3
    for calls in per_iteration:
        # the full steps of the active rows, each with its 2n probes
        assert len(calls) == 1 and calls[0] % (2 * n + 1) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_newton_iteration_with_halvings_makes_at_most_three_phi_calls(monkeypatch, n):
    per_iteration = _calls_per_iteration(monkeypatch, n, _PROBE_CASES[n][3])
    assert any(len(calls) > 1 for calls in per_iteration)
    assert all(1 <= len(calls) <= 3 for calls in per_iteration)


@pytest.mark.parametrize("n", [1, 2])
def test_polish_of_k_roots_makes_one_phi_call_per_step(monkeypatch, n):
    make, x_target, starts = _PROBE_CASES[n][:3]
    phi, calls = _counting_phi(monkeypatch, make(), 0, 1.0)
    x_target = np.array(x_target)
    rows = solver._NewtonRows.at(phi, x_target, np.array(starts))
    rows = solver._newton(phi, x_target, rows, 1e-9, 50, 8, 1e-4)
    roots = rows.X[rows.rn <= 1e-9]
    assert len(roots)
    # points a few Newton steps away from the roots, so that no step stalls
    near = np.concatenate([roots + 1e-3, roots - 1e-3])
    for steps in (1, 2, 3):
        calls.clear()
        solver._newton(phi, x_target, solver._NewtonRows.at(phi, x_target, near),
                       0.0, steps, 0, 0.0)
        assert calls == [(2 * n + 1) * len(near)] * (steps + 1)


def test_polish_starts_from_the_search_values_at_its_roots(monkeypatch):
    # the kept root came from a full step, so its Jacobian is fresh and the
    # polish makes one call fewer than it would from a new evaluation
    spec = parse_system(N2_CONFIG)
    target = solve_forward(spec, 0.0, [0.7, -1.2], 1.0).ys[-1]
    phi, calls = _counting_phi(monkeypatch, spec, 0, 1.0)
    newton, runs = solver._newton, []

    def logged(phi, x_target, rows, *budget):
        start, before = rows.take(np.arange(len(rows.X))), len(calls)
        out = newton(phi, x_target, rows, *budget)
        runs.append((start, budget, len(calls) - before))
        return out

    monkeypatch.setattr(solver, "_newton", logged)
    ps = back_continue_interval(spec, 0, 1.0, target)
    (_, _, search_calls), (start, budget, polish_calls) = runs
    assert ps.classification == "unique"
    assert budget == (0.0, 10, 0, 0.0) and start.fresh.all()
    assert len(calls) == 1 + search_calls + polish_calls  # 1: the starts

    calls.clear()
    again = newton(phi, target, solver._NewtonRows.at(phi, target, start.X), *budget)
    assert len(calls) == polish_calls + 1
    assert np.array_equal(again.X[0], ps.preimages[0])
    assert float(again.rn[0]) == ps.residuals[0]


@pytest.mark.parametrize("n", [1, 2])
def test_polish_evaluates_only_the_stale_jacobians_again(monkeypatch, n):
    make, x_target, starts = _PROBE_CASES[n][:3]
    phi, calls = _counting_phi(monkeypatch, make(), 0, 1.0)
    x_target = np.array(x_target)
    near = np.array(starts, dtype=float) * 0.999
    want = solver._newton(phi, x_target, solver._NewtonRows.at(phi, x_target, near),
                          0.0, 3, 0, 0.0)
    rows = solver._NewtonRows.at(phi, x_target, near)
    rows.fresh[1:] = False  # as if moved by a halving
    calls.clear()
    got = solver._newton(phi, x_target, rows, 0.0, 3, 0, 0.0)
    assert calls[0] == (2 * n + 1) * (len(near) - 1)  # the stale rows' Jacobians
    assert np.array_equal(got.X, want.X) and np.array_equal(got.rn, want.rn)


def _var_lookups(monkeypatch):
    """Names of the variables that expression evaluation looks up, in order."""
    seen, inner = [], expressions._eval

    def spy(node, env):
        if node[0] == "var":
            seen.append(node[1])
        return inner(node, env)

    monkeypatch.setattr(expressions, "_eval", spy)
    return seen


TV_N2_CONFIG = N2_CONFIG.replace("A11 = -0.5", "A11 = -0.5 + 0.1*sin(t)")


@pytest.mark.parametrize("config", [N2_CONFIG, TV_N2_CONFIG], ids=["constant-A", "time-varying-A"])
def test_phi_batch_of_a_config_f_looks_up_w_only_in_the_fold(monkeypatch, config):
    spec = parse_system(config)
    X = np.random.default_rng(3).uniform(-2.0, 2.0, (25, 2))
    # the step loop as it was, with f evaluated whole at every stage
    rhs = lambda t, y: y @ spec.eval_A(t).T + spec.eval_f(t, y, X)
    with np.errstate(over="ignore", invalid="ignore"):
        want = integrate.rk4_final(rhs, 0.0, X, 1.0, 64)
    seen = _var_lookups(monkeypatch)
    got = solver._phi_batch(spec, 0, X, 1.0, 64)
    assert got.tobytes() == want.tobytes()
    # every stage evaluates the y and t subtrees, and none reads w
    assert seen.count("y1") == seen.count("y2") == 4 * 64
    assert not any(name.startswith("w") for name in seen)


def test_phi_batch_of_an_api_f_evaluates_it_whole_at_every_stage(monkeypatch):
    config = parse_system(N2_CONFIG)
    # the same f as a plain callable, which has no fold hook
    spec = dataclasses.replace(config, f=lambda t, y, w: config.f(t, y, w))
    X = np.random.default_rng(3).uniform(-2.0, 2.0, (25, 2))
    want = solver._phi_batch(config, 0, X, 1.0, 64)
    seen = _var_lookups(monkeypatch)
    got = solver._phi_batch(spec, 0, X, 1.0, 64)
    assert got.tobytes() == want.tobytes()
    assert seen.count("w1") == seen.count("w2") == 4 * 64


def test_target_whose_norm_overflows_has_no_preimage():
    # ||x||^2 overflows; phi(x) <= e^4 / (2(e^2 - 1)) has no root there
    ps = back_continue_interval(get_problem("paper-example-1"), 0, 1.0, [1e300])
    assert ps.classification == "none"
    assert ps.preimages == [] and ps.residuals == []


@pytest.mark.parametrize("make, target", [
    (lambda: get_problem("paper-example-1"), [-1e300]),
    (lambda: parse_system(N2_CONFIG), [1e308, 1e308]),
], ids=["n1", "n2"])
def test_preimages_of_a_huge_target_are_finite(make, target):
    ps = back_continue_interval(make(), 0, 1.0, target)
    for p, rq in zip(ps.preimages, ps.residuals):
        assert np.isfinite(p).all() and math.isfinite(rq)


def test_start_lattice_of_a_huge_target_stays_finite():
    # 10*||x_target|| overflows here; the capped radius keeps 2R, and so
    # every lattice point, finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ps = back_continue_interval(parse_system(N2_CONFIG), 0, 1.0, [1e308, 1e308])
    assert ps.classification == "none"


def _textbook_rk4_step(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_step_loop_takes_k1_from_the_stored_derivative(monkeypatch):
    spec = parse_system(N2_CONFIG)  # f reads y: the step loop, not the affine path
    assert not spec.f_ignores_y
    calls = []
    frozen_rhs = solver._frozen_rhs

    def counted(spec, w):
        rhs = frozen_rhs(spec, w)

        def f(t, y):
            calls.append(t)
            return rhs(t, y)

        return f

    monkeypatch.setattr(solver, "_frozen_rhs", counted)
    path = solve_forward(spec, 0.0, [0.3, -0.2], 3.5)
    segments = path.diagnostics["segments"]
    steps = len(path.ts) - segments
    # 4 calls per step and 1 for each segment's first stored derivative
    assert segments == 4 and len(calls) == 4 * steps + segments == 900
    calls.clear()
    monkeypatch.setattr(integrate, "_rk4_step",
                        lambda rhs, t, y, h, k1: _textbook_rk4_step(rhs, t, y, h))
    ref = solve_forward(spec, 0.0, [0.3, -0.2], 3.5)
    assert len(calls) == 5 * steps + segments
    assert np.array_equal(path.ys, ref.ys) and np.array_equal(path.derivs, ref.derivs)


_BAD_STATES = [[1.0, 2.0], [], [[1.0], [2.0]], [math.nan], [math.inf]]


@pytest.mark.parametrize("x", _BAD_STATES)
@pytest.mark.parametrize("call", [
    lambda spec, x: solve_forward(spec, 0.0, x, 1.0),
    lambda spec, x: solve_forward(spec, 0.5, [0.1], 1.0, w0=x),
    lambda spec, x: shooting_map(spec, 0, x),
    lambda spec, x: back_continue_interval(spec, 0, 1.0, x),
    lambda spec, x: back_continue(spec, 1.0, x, 0.0),
], ids=["solve_forward-y0", "solve_forward-w0", "shooting_map", "back_continue_interval",
        "back_continue"])
def test_state_vector_of_wrong_size_or_non_finite_is_invalid_parameter(call, x):
    with pytest.raises(InvalidParameterError):
        call(get_problem("paper-example-1"), x)


def test_state_vector_takes_any_shape_of_n_elements():
    spec = _linear_spec(np.diag([-1.0, 0.5]))
    flat = solve_forward(spec, 0.0, [0.3, -0.2], 2.0)
    column = solve_forward(spec, 0.0, np.array([[0.3], [-0.2]]), 2.0)
    assert np.array_equal(flat.ys, column.ys)
