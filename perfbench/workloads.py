"""The four workloads: their systems, their seeded inputs and their rounds.

A workload makes rounds of operations plus one discarded warm-up
operation.  An operation calls the program and checks what it returns,
against ``oracles`` or a property the method must have; a wrong output
raises ``checks.CheckFailed``, a refusal of the program raises
``EpcagError``.  ``Workload.new_round`` draws every input of the next
round afresh from the workload's seeded generator, so no round repeats
the inputs of an earlier one and a cache that outlives a call cannot
turn the later rounds into cache hits.  The draws never change how many
operations of each kind a round holds, nor the sizes they are drawn
from, so the work per round stays nearly the same from round to round
and from seed to seed.

Every system is passed through ``wrap`` (the tracer's ``wrap_spec``, or
the identity), and the program is called through attributes of the
``epcag_lab`` package at call time, so a traced run sees every call.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

import epcag_lab as lab
from epcag_lab.grid import make_uniform_grid

import checks
import oracles

ROOT_TOL = 1e-9  # back_continue_interval's default root tolerance
STEADY_TOL = 1e-9  # SteadyParams' default stop tolerance
# Distance of a bounded solution from its equilibrium: the stop tolerance
# plus the truncated tails at the horizon, which the frozen feedback makes
# decay more slowly than the horizon assumes (measured: 1.3e-8 and 1e-9).
EQUILIBRIUM_TOL = 100 * STEADY_TOL


@dataclass
class Workload:
    new_round: object  # () -> [(name, callable)] in round order, with fresh inputs
    warmup: object  # one operation on fixed inputs, run once during set-up
    stats: dict = field(default_factory=dict)


def require_backward_uniqueness(spec):
    """Refuse a system whose preimages need not be unique: the
    backward-uniqueness inequality, evaluated here independently,
    lip M theta (1 + M (1 + lip theta) e^{M lip theta}) < m."""
    mu, lip, theta = spec.mu, spec.lip, spec.grid.gap_bound
    M, m = math.exp(mu * theta), math.exp(-mu * theta)
    if not lip * M * theta * (1.0 + M * (1.0 + lip * theta) * math.exp(M * lip * theta)) < m:
        raise ValueError(f"{spec.name}: the backward-uniqueness inequality fails")


# ---------------------------------------------------------------------------
# the n = 8 system, built through the API (SystemSpec with a_constant), so
# the config parser's limits stay out of the workloads
# ---------------------------------------------------------------------------

N8_EIGENVALUES = np.array([-0.8, -1.0, -1.2, -1.5, 0.7, 0.9, 1.1, 1.4])


def n8_matrices():
    """Non-normal A = V diag(lambda) V^{-1} with 4 contracting and 4
    expanding directions, and two small coupling matrices of unit 2-norm
    directions.  Fixed: the system is part of the workload's definition."""
    rng = np.random.default_rng(8)
    n = len(N8_EIGENVALUES)
    V = np.eye(n) + np.triu(rng.uniform(-0.4, 0.4, (n, n)), 1)
    A = V @ np.diag(N8_EIGENVALUES) @ np.linalg.inv(V)
    G = rng.uniform(-1.0, 1.0, (n, n))
    B = rng.uniform(-1.0, 1.0, (n, n))
    return A, G / np.linalg.norm(G, 2), B / np.linalg.norm(B, 2)


def n8_system(A, coupling, forcing=None, window=(-40.0, 40.0)):
    """y' = A y + h + C y(beta(t)) on the unit grid; lip = ||C||_2 exactly."""
    h = np.zeros(len(A)) if forcing is None else np.asarray(forcing, dtype=float)
    CT = coupling.T

    def f(t, y, w):
        return h + w @ CT

    return lab.SystemSpec(
        n=len(A), A=lambda t: A, f=f, grid=make_uniform_grid(1.0, 0.0, window),
        mu=float(np.linalg.norm(A, 2)), lip=float(np.linalg.norm(coupling, 2)),
        h0=float(np.linalg.norm(h)), name="n8", a_constant=A,
    )


def reduced(spec):
    return lab.reduce(spec, lab.dichotomy_for_constant_A(spec.a_constant))


# ---------------------------------------------------------------------------
# backward: backward continuation (c03, c13)
# ---------------------------------------------------------------------------

N2_CONFIG = """\
[system]
n = 2
A11 = -0.5
A12 = 0.3
A21 = -0.2
A22 = 0.4
f1 = {f1}
f2 = 0.01*cos(w1) - 0.01*sin(y1)
[grid]
step = 1.0
window = 0 4
[constants]
mu = 0.75
lip = 0.03
"""
# ||A||_2 = 0.708 <= mu; |df| <= 0.0224 (|dy| + |dw|) <= lip
N2_F1 = "0.02*sin(w2) + 0.01*y2*cos(t)"
# w1 = 0 is a start of the multi-start lattice, where y1/w1 divides by zero
DOMAIN_ERROR_F1 = "0.01/(1 + w1^2) + 0.001*y1/w1"


def build_backward(seed, wrap):
    rng = np.random.default_rng(seed)
    e1 = wrap(lab.get_problem("paper-example-1"))

    def example1(z, substeps):
        def op():
            ps = lab.back_continue_interval(e1, 0, 1.0, [z], substeps=substeps)
            checks.roots_match(ps.preimages, ps.classification, oracles.example1_roots(z), 1e-6)
            images = [lab.solve_forward(e1, 0.0, x, 1.0, substeps=substeps).ys[-1]
                      for x in ps.preimages]
            checks.maps_back(images, [z], ROOT_TOL * (1.0 + abs(z)))
        return op

    def double_root():
        ps = lab.back_continue_interval(e1, 0, 1.0, [oracles.Z_STAR], substeps=128)
        checks.unique([ps.classification])
        checks.close("double root", ps.preimages[0], [oracles.X_STAR], 1e-4)
        image = lab.solve_forward(e1, 0.0, ps.preimages[0], 1.0, substeps=128).ys[-1]
        checks.maps_back([image], [oracles.Z_STAR], ROOT_TOL * (1.0 + oracles.Z_STAR))

    pc = wrap(lab.get_problem("periodic-coupled", window=(0.0, 6.0)))
    require_backward_uniqueness(pc)

    def chain(x_end):
        def op():
            bc = lab.back_continue(pc, 6.0, [x_end], 0.0)
            checks.require(bc.ok and len(bc.steps) == 12,
                           f"chain ok={bc.ok} after {len(bc.steps)} of 12 intervals")
            checks.unique([s.classification for s in bc.steps])
            checks.small("anchor residual", bc.residual, 1e-6)
        return op

    n2 = wrap(lab.parse_system(N2_CONFIG.format(f1=N2_F1)))
    require_backward_uniqueness(n2)

    def n2_search(x_origin):
        def op():
            target = lab.solve_forward(n2, 0.0, x_origin, 1.0).ys[-1]
            ps = lab.back_continue_interval(n2, 0, 1.0, target)
            checks.unique([ps.classification])
            checks.close("n=2 preimage", ps.preimages[0], x_origin, 1e-6)
            image = lab.solve_forward(n2, 0.0, ps.preimages[0], 1.0).ys[-1]
            checks.maps_back([image], target, ROOT_TOL * (1.0 + np.linalg.norm(target)))
        return op

    # fixed input: the search fails on every input, whatever the seed
    bad = wrap(lab.parse_system(N2_CONFIG.format(f1=DOMAIN_ERROR_F1)))
    bad_target = np.array([0.3, -0.2])

    def domain_error():
        ps = lab.back_continue_interval(bad, 0, 1.0, bad_target)
        images = [lab.solve_forward(bad, 0.0, x, 1.0).ys[-1] for x in ps.preimages]
        checks.maps_back(images, bad_target, ROOT_TOL * (1.0 + np.linalg.norm(bad_target)))

    def new_round():
        ops = []
        for substeps in (64, 128):
            # as many targets with two preimages as with none, away from the
            # ill-conditioned neighbourhood of the double root
            zs = np.concatenate([rng.uniform(-6.0, oracles.Z_STAR - 0.3, 8),
                                 rng.uniform(oracles.Z_STAR + 0.3, 7.0, 8)])
            ops += [(f"example1-s{substeps}", example1(float(z), substeps)) for z in zs]
        ops.append(("example1-double-root", double_root))
        ops.append(("periodic-coupled-chain", chain(float(rng.uniform(-2.0, 2.0)))))
        ops += [("config-n2", n2_search(x)) for x in rng.uniform(-1.5, 1.5, (3, 2))]
        ops.append(("config-n2-domain-error", domain_error))
        return ops

    return Workload(new_round=new_round, warmup=example1(1.0, 64))


# ---------------------------------------------------------------------------
# manifold: integral manifolds (c10)
# ---------------------------------------------------------------------------

# frozen and state coupling, sigma0 = 1 and 1.5 (c10's variants)
DIAG_VARIANTS = [
    dict(coupling=0.01),
    dict(coupling=0.02, coupling_arg="state", sigma0=1.5),
]
FD_STEP = 1e-4  # c10's central-difference step
# anchors t0: the stable side meshes [t0, t0 + horizon], and the longest
# horizon (n = 8, |c| = 1) is 31, inside the window (-40, 40) from t0 = 5
KNOTS = np.arange(-20, 6)


def build_manifold(seed, wrap):
    rng = np.random.default_rng(seed)
    stats = {}
    tight = lab.ManifoldParams(tol=1e-12)

    def evaluated(mf, keys):
        """The PicardResults behind the values taken (memo hits)."""
        for t0, c in keys:
            res = mf.evaluate(t0, c)
            checks.decay_ok(res)
            stats["picard_iterations"] = stats.get("picard_iterations", 0) + res.iterations

    def diag_ops(name, red, c, t0a, t0b):
        """The sweep of one variant, as short operations (see calibrate.py)
        on one ManifoldFn that the first of them makes fresh each round."""
        sweep = {}

        def odd_pair():
            mf = sweep["mf"] = lab.ManifoldFn(red, "stable", tight)
            sweep["F"] = mf.value(t0a, [c])
            # two evaluations of one fixed point, each stopped at tol 1e-12
            checks.odd(sweep["F"], mf.value(t0a, [-c]), 1e-10)

        def other_anchor():
            checks.close("F(t0b, c) - F(t0a, c)", sweep["mf"].value(t0b, [c]), sweep["F"], 1e-10)

        def jacobian():
            sweep["J"] = sweep["mf"].jacobian(t0a, [c])

        def finite_difference():
            mf = sweep["mf"]
            F_hi, F_lo = mf.value(t0a, [c + FD_STEP]), mf.value(t0a, [c - FD_STEP])
            checks.jacobian_matches_fd(sweep["J"], F_hi, F_lo, FD_STEP, 1e-4)
            evaluated(mf, [(t0a, [c]), (t0a, [-c]), (t0b, [c]),
                           (t0a, [c + FD_STEP]), (t0a, [c - FD_STEP])])

        return [(f"{name}-{op.__name__}", op)
                for op in (odd_pair, other_anchor, jacobian, finite_difference)]

    diag = [(f"diag-{'-'.join(f'{k}{v}' for k, v in kw.items())}",
             reduced(wrap(lab.get_problem("diag-dichotomy", **kw)))) for kw in DIAG_VARIANTS]

    A, G, _B = n8_matrices()
    red8 = reduced(wrap(n8_system(A, 0.004 * G)))
    S = oracles.linear_manifold_slope(A, 0.004 * G, red8.u_trans, red8.k)
    tol8 = 10.0 * lab.ManifoldParams().tol

    def n8_ops(points):
        """Value and Jacobian at each point, on one ManifoldFn that the
        first operation makes fresh each round."""
        n8 = {}

        def n8_point(j):
            def op():
                if j == 0:
                    n8["mf"] = lab.ManifoldFn(red8, "stable")
                mf = n8["mf"]
                t0, c = points[j]
                checks.close("n=8 F(t0, c) vs S c", mf.value(t0, c), S @ c, tol8)
                checks.close("n=8 dF/dc vs S", mf.jacobian(t0, c), S, tol8)
                evaluated(mf, [(t0, c)])
            return op

        return [(f"n8-linear-coupling-{j}", n8_point(j)) for j in range(len(points))]

    def new_round():
        ops = []
        for name, red in diag:
            c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 1.2))
            t0a, t0b = (float(t) for t in rng.choice(KNOTS, size=2, replace=False))
            ops += diag_ops(name, red, c, t0a, t0b)
        ops += n8_ops([(float(t0), rng.uniform(-0.5, 0.5, 4))
                       for t0 in rng.choice(KNOTS, size=2, replace=False)])
        return ops

    red0 = reduced(wrap(lab.get_problem("diag-dichotomy", **DIAG_VARIANTS[0])))

    def warmup():
        mf = lab.ManifoldFn(red0, "stable")
        mf.value(0.0, [0.5])
        checks.decay_ok(mf.evaluate(0.0, [0.5]))

    return Workload(new_round=new_round, warmup=warmup, stats=stats)


# ---------------------------------------------------------------------------
# steady: bounded and periodic solutions (c11, c12)
# ---------------------------------------------------------------------------

def build_steady(seed, wrap):
    rng = np.random.default_rng(seed)
    feedback = 0.1
    A, _G, B = n8_matrices()

    def contraction(red):
        return 2.0 * red.K * red.L / red.sigma

    def forced_scalar(level, probe_seed):
        def op():
            red = reduced(wrap(lab.get_problem("forced-scalar", level=level, feedback=feedback)))
            res = lab.bounded_solution(red, seed=probe_seed)
            checks.close("forced-scalar equilibrium", res.zs,
                         np.full_like(res.zs, level / (1.0 - feedback)), EQUILIBRIUM_TOL)
            checks.bounded_certificates(res, contraction(red), STEADY_TOL)
        return op

    def n8_forced(h, probe_seed):
        def op():
            red = reduced(wrap(n8_system(A, 0.01 * B, forcing=h, window=(0.0, 6.0))))
            res = lab.bounded_solution(red, seed=probe_seed)
            checks.close("n=8 equilibrium", res.zs @ red.u_trans.T,
                         np.broadcast_to(oracles.equilibrium(A, 0.01 * B, h), res.zs.shape),
                         EQUILIBRIUM_TOL)
            checks.bounded_certificates(res, contraction(red), STEADY_TOL)
        return op

    def periodic(start):
        """The periodic solve over two periods from the knot ``start``."""
        def op():
            red = reduced(wrap(lab.get_problem("periodic-coupled", window=(start, start + 2.0))))
            res = lab.periodic_solution(red, params=lab.SteadyParams(tol=STEADY_TOL))
            b = res.bounded
            checks.close("periodic-coupled solution", b.zs[:, 0],
                         oracles.periodic_coupled_solution(b.ts), 1e-6)
            checks.shift_certificates(res, (2, 1), STEADY_TOL)
            checks.small("sup_norm - bound", b.sup_norm - b.bound, STEADY_TOL)
        return op

    def new_round():
        h = rng.normal(size=len(A))
        h *= 0.2 / np.linalg.norm(h)
        probe_seeds = rng.integers(2**31, size=2)
        return [("forced-scalar-feedback",
                 forced_scalar(float(rng.uniform(0.4, 0.6)), int(probe_seeds[0]))),
                ("n8-constant-forcing", n8_forced(h, int(probe_seeds[1]))),
                # a knot of the step-0.5 grid, so both phases of the period occur
                ("periodic-coupled", periodic(0.5 * float(rng.integers(0, 40))))]

    return Workload(new_round=new_round, warmup=periodic(0.0))


# ---------------------------------------------------------------------------
# flow: the linear flow (c04)
# ---------------------------------------------------------------------------

TV_CONFIG = """\
[system]
n = 3
A11 = -1 + 0.5*sin(t)
A22 = 1.2 + 0.3*cos(2*t)
A33 = -0.7
f1 = 0
f2 = 0
f3 = 0
[grid]
step = 1.0
window = 0 10
[constants]
mu = 1.5
lip = 0
"""
# antiderivatives of the diagonal of TV_CONFIG's A(t); sup ||A(t)|| = 1.5
TV_ANTIDERIVATIVES = [
    lambda t: -t - 0.5 * math.cos(t),
    lambda t: 1.2 * t + 0.15 * math.sin(2.0 * t),
    lambda t: -0.7 * t,
]
CONSTANT_SYSTEMS = ("paper-example-1", "diag-dichotomy", "forced-scalar")
# (pairs per verify_flow_bounds call, calls per round): short operations,
# so that the machine speed is measured often (see calibrate.py)
FLOW_CALLS = (50, 3)
TV_CALLS = (30, 2)
MAX_SPAN = 2.0
FM_RTOL = 1e-9


def flow_pairs(rng, window, count):
    """(t, s) pairs whose spans are a fixed set of +-|t - s| values, so
    that the seed moves the pairs but not the number of RK4 steps."""
    spans = np.linspace(0.1, MAX_SPAN, count // 2)
    spans = rng.permutation(np.concatenate([spans, -spans]))
    lo, hi = window
    s = rng.uniform(lo + MAX_SPAN, hi - MAX_SPAN, len(spans))
    return np.stack([s + spans, s], axis=1)


def build_flow(seed, wrap):
    rng = np.random.default_rng(seed)

    def bounds_op(spec, pairs, oracle, fm_pairs):
        def op():
            rep = lab.verify_flow_bounds(spec, pairs=pairs)
            checks.flow_bounds(rep, len(pairs))
            for t, s in fm_pairs:
                checks.relative_close(f"X({t:.3f}, {s:.3f})",
                                      lab.fundamental_matrix(spec, t, s), oracle(t, s), FM_RTOL)
        return op

    def bounds_ops(name, spec, oracle, calls):
        n_pairs, n_calls = calls
        fm_pairs = flow_pairs(rng, spec.grid.window, 4)
        return [(f"flow-bounds-{name}",
                 bounds_op(spec, flow_pairs(rng, spec.grid.window, n_pairs), oracle,
                           fm_pairs if j == 0 else []))
                for j in range(n_calls)]

    constant = [(name, wrap(lab.get_problem(name))) for name in CONSTANT_SYSTEMS]
    tv = wrap(lab.parse_system(TV_CONFIG))
    A, G, _B = n8_matrices()
    spec8 = wrap(n8_system(A, 0.004 * G))

    def n8_propagators(block_pairs, verify_seed):
        def op():
            red = reduced(spec8)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                split = lab.propagators(red, verify=True, seed=verify_seed)
            checks.require(not caught,
                           f"propagators warned: {[str(w.message) for w in caught]}")
            Ar = red.u_trans_inv @ A @ red.u_trans
            Bp, Bm = Ar[:red.k, :red.k], Ar[red.k:, red.k:]
            for t, s in block_pairs:
                t, s = max(t, s), min(t, s)
                checks.relative_close("uprop", split.uprop(t, s), oracles.expm(Bp, t - s),
                                      FM_RTOL)
                checks.relative_close("vprop", split.vprop(s, t), oracles.expm(Bm, s - t),
                                      FM_RTOL)
        return op

    def new_round():
        ops = []
        for name, spec in constant:
            ops += bounds_ops(name, spec,
                              lambda t, s, A=spec.a_constant: oracles.expm(A, t - s), FLOW_CALLS)
        ops += bounds_ops("time-varying", tv,
                          lambda t, s: oracles.diagonal_flow(TV_ANTIDERIVATIVES, t, s), TV_CALLS)
        ops.append(("n8-block-propagators",
                    n8_propagators(flow_pairs(rng, spec8.grid.window, 4),
                                   int(rng.integers(2**31)))))
        return ops

    warm = wrap(lab.get_problem(CONSTANT_SYSTEMS[0]))
    warm_pairs = flow_pairs(np.random.default_rng(0), warm.grid.window, 10)

    def warmup():
        checks.flow_bounds(lab.verify_flow_bounds(warm, pairs=warm_pairs), len(warm_pairs))

    return Workload(new_round=new_round, warmup=warmup)


BY_NAME = {
    "backward": build_backward,
    "manifold": build_manifold,
    "steady": build_steady,
    "flow": build_flow,
}


def build(name, seed, wrap=lambda spec: spec):
    return BY_NAME[name](seed, wrap)
