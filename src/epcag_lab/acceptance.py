"""Built-in verification suite: thirteen property checks against
closed-form oracles and the library's own inequality formulas.

Each criterion is a standalone runner returning a ``CriterionResult``;
``run_all`` drives them for the ``verify`` subcommand and the test suite
asserts on the same runners.  Expected values are computed here from
independent closed forms (variation-of-constants maps, quadratic root
formulas, spectral decompositions), never from the code paths under
test.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import make_uniform_grid
from .linear import (
    check_backward_uniqueness,
    check_smallness,
    verify_flow_bounds,
)
from .manifold import (
    ManifoldFn,
    ManifoldParams,
    invariance_check,
    off_manifold_diagnose,
    picard_stable,
)
from .reduction import reduce as reduce_system
from .solver import back_continue_interval, solve_forward
from .steady import SteadyParams, bounded_solution, periodic_solution, periodicity_params
from .system import get_problem

__all__ = ["CriterionResult", "CRITERIA", "run_all", "run_criterion"]

E2 = math.exp(2.0)

# criterion 9 deviation budget: Picard stop tolerance + truncation tail
# + forward RK4 drift over the five-unit horizon, all at defaults
COMBINED_TOL_9 = 1e-8 + 1e-8 + 5e-8


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:2d} {self.name} ({self.elapsed:.2f}s)"


def _example1_map(x0, t=1.0):
    """Closed-form one-interval map: variation of constants for
    x' = 2x - c with c frozen at x0^2."""
    return math.exp(2 * t) * x0 - (math.exp(2 * t) - 1.0) * x0 ** 2 / 2.0


def _example1_roots(z):
    """Roots of (e^2-1) x^2 - 2 e^2 x + 2 z = 0 by the quadratic formula."""
    a, b, c = E2 - 1.0, -2.0 * E2, 2.0 * z
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [-b / (2 * a)]
    r = math.sqrt(disc)
    return sorted([(-b - r) / (2 * a), (-b + r) / (2 * a)])


def c01_epca_specialization(seed=0):
    """beta on the unit grid equals the greatest-integer function."""
    grid = make_uniform_grid(1.0, 0.0, (0.0, 100.0))
    ts = np.random.default_rng(seed).uniform(0.0, 100.0, 10_000)
    t0 = time.perf_counter()
    vals = grid.beta(ts)
    elapsed = time.perf_counter() - t0
    exact = bool(np.array_equal(vals, np.floor(ts)))
    return exact and elapsed < 1.0, {"exact_match": exact, "samples": len(ts)}


def c02_example1_forward(seed=0):
    """Forward solve matches the closed-form one-interval map to 1e-8."""
    spec = get_problem("paper-example-1")
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    t0 = time.perf_counter()
    for x0 in rng.uniform(-2.0, 2.0, 50):
        path = solve_forward(spec, 0.0, [x0], 1.0, substeps=256)
        exact = _example1_map(x0)
        rel = abs(path.ys[-1][0] - exact) / max(abs(exact), 1e-15)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    return worst <= 1e-8 and elapsed < 5.0, {"worst_rel_error": worst}


def c03_example1_backward(seed=0):
    """Preimage classification and roots match the quadratic oracle."""
    spec = get_problem("paper-example-1")
    rng = np.random.default_rng(seed + 2)
    z_star = E2 ** 2 / (2.0 * (E2 - 1.0))
    targets = []
    while len(targets) < 50:
        z = rng.uniform(-6.0, 6.0)
        if abs(z - z_star) > 0.05:
            targets.append(z)
    t0 = time.perf_counter()
    worst_root = 0.0
    class_ok = True
    for z in targets:
        ps = back_continue_interval(spec, 0, 1.0, [z], substeps=128)
        expect = _example1_roots(z)
        want = {0: "none", 1: "unique"}.get(len(expect), "multiple")
        class_ok &= ps.classification == want
        got = sorted(float(p[0]) for p in ps.preimages)
        if len(got) == len(expect):
            for g, e in zip(got, expect):
                worst_root = max(worst_root, abs(g - e))
        else:
            class_ok = False
    # exact double-root probe: the two Newton limits must cluster to one
    ps_star = back_continue_interval(spec, 0, 1.0, [z_star], substeps=256)
    double_ok = (ps_star.classification == "unique"
                 and abs(ps_star.preimages[0][0] - E2 / (E2 - 1.0)) < 1e-4)
    # the non-uniqueness pair collides at t = 1
    s = 2.0 * E2 / (E2 - 1.0)
    x0, x1 = 0.8, s - 0.8
    p0 = solve_forward(spec, 0.0, [x0], 1.0, substeps=256).ys[-1][0]
    p1 = solve_forward(spec, 0.0, [x1], 1.0, substeps=256).ys[-1][0]
    collide = abs(p0 - p1)
    elapsed = time.perf_counter() - t0
    passed = (class_ok and worst_root <= 1e-6 and double_ok
              and collide <= 1e-8 and elapsed < 10.0)
    return passed, {
        "classification_ok": class_ok, "worst_root_error": worst_root,
        "double_root_ok": double_ok, "collision_gap": collide,
    }


def c04_flow_bounds(seed=0):
    """exp(-mu|t-s|) <= ||X(t,s)|| <= exp(mu|t-s|) on 1000 pairs x 3 systems."""
    worst = -np.inf
    details = {}
    for name in ("paper-example-1", "diag-dichotomy", "forced-scalar"):
        spec = get_problem(name)
        rep = verify_flow_bounds(spec, n_pairs=1000, seed=seed + 3)
        details[name] = rep.max_violation
        worst = max(worst, rep.max_violation)
    return worst <= 1e-8, {"max_violation": worst, **details}


# hand-computed tuples: (mu, lip, theta) for the backward-uniqueness check
_BW_TUPLES = [
    (1.0, 0.0, 1.0), (1.0, 0.01, 1.0), (1.0, 0.2, 1.0), (2.0, 0.01, 1.0),
    (1.0, 0.1, 0.5), (0.5, 0.05, 2.0), (2.0, 0.05, 0.25), (0.0, 0.1, 1.0),
    (1.5, 0.02, 0.75), (3.0, 0.001, 1.0),
]
# (K, sigma, alpha, theta, L, eps) for the smallness report
_SMALL_TUPLES = [
    (1.0, 1.0, 0.5, 1.0, 0.0, 1.0), (1.0, 1.0, 0.5, 1.0, 0.05, 1.0),
    (1.0, 1.0, 0.5, 1.0, 0.1, 1.0), (1.0, 1.0, 0.5, 1.0, 0.02, 1.0),
    (2.0, 1.0, 0.5, 1.0, 0.01, 2.0), (1.0, 2.0, 1.0, 0.5, 0.1, 1.0),
    (1.5, 1.0, 0.25, 1.0, 0.03, 1.5), (1.0, 0.5, 0.25, 2.0, 0.01, 1.0),
    (3.0, 2.0, 0.5, 0.5, 0.005, 3.0), (1.0, 1.0, 0.9, 1.0, 0.01, 0.5),
]


def c05_inequality_checkers(seed=0):
    """Checker arithmetic matches spreadsheet-style recomputation exactly."""
    exact = True
    for mu, lip, th in _BW_TUPLES:
        M = math.exp(mu * th)
        m = math.exp(-mu * th)
        lhs = lip * M * th * (1.0 + M * (1.0 + lip * th) * math.exp(M * lip * th))
        got = check_backward_uniqueness(mu, lip, th)
        exact &= (got.lhs == lhs and got.rhs == m and got.holds == (lhs < m))
    for K, s, a, th, L, eps in _SMALL_TUPLES:
        es, ea = math.exp(s * th), math.exp(a * th)
        want = {
            "iterate_decay": (K * (K + eps) * (2.0 * s / (s ** 2 - a ** 2)) * (1.0 + es) * L, eps),
            "contraction": (L, (s - a) / (2.0 * K * (1.0 + es))),
            "iterate_lipschitz": (4.0 * s * K * L * (1.0 + es), s ** 2 - a ** 2),
            "sup_contraction": (2.0 * K * L / s, 1.0),
            "cone_trapping": (K * (K ** 2 + 1.0) * (1.0 + ea) * L, s),
        }
        rep = check_smallness(K, s, a, th, L, eps)
        for c in rep.checks:
            lhs, rhs = want[c.name]
            exact &= (c.lhs == lhs and c.rhs == rhs and c.holds == (lhs < rhs))
    # monotonicity in the Lipschitz constant: increasing it never turns a
    # failing verdict into a passing one
    mono = True
    ls = np.linspace(0.0, 0.5, 40)
    seq = [check_backward_uniqueness(1.0, l, 1.0).holds for l in ls]
    mono &= all(not (b and not a) for a, b in zip(seq, seq[1:]))
    names = ["iterate_decay", "contraction", "iterate_lipschitz",
             "sup_contraction", "cone_trapping"]
    for name in names:
        seq = [check_smallness(1.0, 1.0, 0.5, 1.0, L, 1.0)[name].holds
               for L in np.linspace(0.0, 1.0, 40)]
        mono &= all(not (b and not a) for a, b in zip(seq, seq[1:]))
    return exact and mono, {"exact_arithmetic": exact, "monotone": mono,
                            "tuples": len(_BW_TUPLES) + len(_SMALL_TUPLES)}


def _diag_reduced(**kw):
    spec = get_problem("diag-dichotomy", **kw)
    return reduce_system(spec)


def c06_manifold_zero(seed=0):
    """f == 0 gives F identically zero, in a single iteration."""
    red = _diag_reduced()
    ok = True
    worst_iters = 0
    for t0 in (0.0, 1.0, 2.0):
        for c in (0.0, 0.5, -0.5, 1.5, -2.0):
            res = picard_stable(red, t0, [c])
            ok &= bool(np.all(res.f_value == 0.0)) and res.iterations == 1
            worst_iters = max(worst_iters, res.iterations)
    return ok, {"exact_zero_and_single_iteration": ok, "max_iterations": worst_iters}


def _decay_runs(red):
    """The two stable-side iterations that criteria 7 and 8 inspect."""
    return [picard_stable(red, 0.0, [c]) for c in (0.5, -1.2)]


def c07_manifold_decay(seed=0):
    """Every iterate obeys ||z(t)|| <= (K+eps)||c|| e^{-alpha (t-t0)}."""
    red = _diag_reduced(coupling=0.01)  # L = 0.02
    t0c = time.perf_counter()
    results = _decay_runs(red)
    elapsed = time.perf_counter() - t0c
    worst = max(max(res.decay_margins) for res in results)
    passed = worst <= 0.0 and elapsed < 30.0
    return passed, {"worst_decay_margin": worst, "L": red.L, "alpha": 0.5, "eps": 1.0}


def c08_contraction_rate(seed=0):
    """Observed sup-norm ratios stay within the geometric bound + 10%."""
    results = _decay_runs(_diag_reduced(coupling=0.01))
    K, s, a, th, L = 1.0, 1.0, 0.5, 1.0, 0.02
    bound = 2.0 * K * L * (1.0 + math.exp(s * th)) / (s - a)
    ratios = [r for res in results for r in res.contraction_ratios]
    ok = all(r <= bound * 1.1 for r in ratios)
    return ok and len(ratios) > 0, {
        "bound": bound, "max_ratio": max(ratios) if ratios else None,
        "n_ratios": len(ratios),
    }


def c09_invariance_and_growth(seed=0):
    """On-manifold starts stay on the graph; off-manifold v-norms obey the
    exponential lower bound after cone entry."""
    red = _diag_reduced(coupling=0.01)
    mf = ManifoldFn(red, "stable")
    inv = invariance_check(mf, 0.0, [0.5], 5.0)
    inv_ok = inv.max_deviation <= 50.0 * COMBINED_TOL_9
    F0 = mf.value(0.0, [0.5])
    z0 = np.array([0.5, float(F0[0]) + 0.1])
    rep = off_manifold_diagnose(red, 0.0, z0, 5.0, manifold=mf)
    growth_ok = bool(rep.bound_ok_after_entry)
    return inv_ok and growth_ok, {
        "max_invariance_deviation": inv.max_deviation,
        "deviation_budget": 50.0 * COMBINED_TOL_9,
        "cone_entry_time": rep.cone_entry_time,
        "lower_bound_ok": growth_ok,
        "lower_bound_margin": rep.bound_margin,
        "growth_exponent": rep.growth_exponent,
    }


def c10_jacobian_smoothness(seed=0):
    """jacobian_F matches central finite differences to 1e-4 relative."""
    rng = np.random.default_rng(seed + 10)
    variants = [
        dict(coupling=0.01), dict(coupling=0.02),
        dict(coupling=0.01, coupling_arg="state"),
        dict(coupling=0.02, coupling_arg="state"),
        dict(coupling=0.01, sigma0=1.5),
    ]
    params = ManifoldParams(tol=1e-12)
    h = 1e-4
    worst = 0.0
    count = 0
    for kw in variants:
        red = _diag_reduced(**kw)
        mf = ManifoldFn(red, "stable", params)
        for _ in range(4):
            t0 = float(rng.integers(0, 3))
            c = float(rng.uniform(-1.5, 1.5))
            J = mf.jacobian(t0, [c])
            fd = (mf.value(t0, [c + h]) - mf.value(t0, [c - h])) / (2.0 * h)
            rel = np.linalg.norm(J[:, 0] - fd) / max(np.linalg.norm(fd), 1e-9)
            worst = max(worst, float(rel))
            count += 1
    # degenerate split dimensions give empty derivative blocks
    fs = get_problem("forced-scalar", level=0.0, feedback=0.05)
    red_fs = reduce_system(fs)
    shape_ok = ManifoldFn(red_fs, "stable", params).jacobian(0.0, [0.3]).shape == (0, 1)
    return worst <= 1e-4 and count == 20 and shape_ok, {
        "worst_rel_error": worst, "points": count, "empty_shape_ok": shape_ok,
    }


def c11_bounded_solution(seed=0):
    """Constant forcing settles at 0.5 with every certificate intact."""
    quad_tol = 1e-9  # matches the steady-solve stop tolerance
    fs = get_problem("forced-scalar")
    red = reduce_system(fs)
    res = bounded_solution(red, window=(0.0, 5.0), seed=seed)
    err = float(np.abs(res.zs - 0.5).max())
    ok = (err <= 1e-8 and res.sup_norm <= res.bound + quad_tol
          and res.probe_residual <= 1e-8)
    # weak frozen feedback: geometric iterate bound and first-iterate bound
    fsf = get_problem("forced-scalar", feedback=0.1)
    redf = reduce_system(fsf)
    resf = bounded_solution(redf, window=(0.0, 5.0), seed=seed,
                            store_iterates=True)
    K, s, L, H = 1.0, 1.0, redf.L, resf.H
    geo_ok = all(d <= (2 * K * L / s) ** (m + 1) * H / L + quad_tol
                 for m, d in enumerate(resf.iterate_diffs))
    first_ok = float(np.abs(resf.iterates[0]).max()) <= K * H / s + quad_tol
    bound_ok = resf.sup_norm <= resf.bound + quad_tol
    passed = ok and geo_ok and first_ok and bound_ok
    return passed, {
        "const_error": err, "uniqueness_probe": res.probe_residual,
        "geometric_bound_ok": geo_ok, "first_iterate_ok": first_ok,
        "sup_le_bound": bound_ok, "feedback_iterations": resf.iterations,
    }


def c12_periodic_solution(seed=0):
    """periodic-coupled yields (k, m) = (2, 1) and a 1-periodic solution."""
    pc = get_problem("periodic-coupled")
    red = reduce_system(pc)
    res = periodic_solution(red, params=SteadyParams(tol=1e-9))
    km_ok = (res.pparams.k, res.pparams.m) == (2, 1)
    res_ok = res.residual <= 1e-6
    iter_ok = all(r <= 1e-8 for r in res.iterate_residuals)
    return km_ok and res_ok and iter_ok, {
        "k": res.pparams.k, "m": res.pparams.m, "period": res.pparams.period,
        "shift_residual": res.residual,
        "max_iterate_residual": max(res.iterate_residuals),
    }


def c13_backward_uniqueness(seed=0):
    """Under the uniqueness inequality every preimage search is unique and
    round-trips within 1e-6."""
    spec = get_problem("periodic-coupled")
    bw = check_backward_uniqueness(spec.mu, spec.lip, spec.grid.gap_bound)
    rng = np.random.default_rng(seed + 13)
    all_unique = True
    worst_rt = 0.0
    for j in range(100):
        i = int(rng.integers(0, 4))
        a, b = spec.grid.knot(i), spec.grid.knot(i + 1)
        t_target = b if j % 2 == 0 else float(rng.uniform(a + 0.1 * (b - a), b))
        x_target = rng.uniform(-3.0, 3.0, 1)
        ps = back_continue_interval(spec, i, t_target, x_target, substeps=64)
        all_unique &= ps.classification == "unique"
        if ps.preimages:
            path = solve_forward(spec, a, ps.preimages[0], t_target, substeps=64)
            worst_rt = max(worst_rt, float(abs(path.ys[-1][0] - x_target[0])))
    return bw.holds and all_unique and worst_rt <= 1e-6, {
        "bw_holds": bw.holds, "all_unique": all_unique,
        "worst_roundtrip": worst_rt,
    }


CRITERIA = [
    (1, "epca-specialization", c01_epca_specialization),
    (2, "example1-forward-oracle", c02_example1_forward),
    (3, "example1-backward-continuation", c03_example1_backward),
    (4, "flow-bounds", c04_flow_bounds),
    (5, "inequality-checkers", c05_inequality_checkers),
    (6, "manifold-zero-case", c06_manifold_zero),
    (7, "manifold-decay", c07_manifold_decay),
    (8, "contraction-rate", c08_contraction_rate),
    (9, "invariance-and-growth", c09_invariance_and_growth),
    (10, "jacobian-smoothness", c10_jacobian_smoothness),
    (11, "bounded-solution", c11_bounded_solution),
    (12, "periodic-solution", c12_periodic_solution),
    (13, "uniqueness-under-bw", c13_backward_uniqueness),
]


def run_criterion(number, seed=0):
    results = run_all(seed, only={number})
    if not results:
        raise ValueError(f"no criterion {number}")
    return results[0]


def run_all(seed=0, only=None, echo=None):
    results = []
    for num, name, fn in CRITERIA:
        if only is not None and num not in only:
            continue
        t0 = time.perf_counter()
        passed, details = fn(seed)
        res = CriterionResult(num, name, bool(passed), details,
                              time.perf_counter() - t0)
        results.append(res)
        if echo:
            echo(res.line())
    return results
