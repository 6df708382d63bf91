import math

import numpy as np
import pytest

from epcag_lab.errors import ConditionError, InvalidParameterError
from epcag_lab.linear import dichotomy_for_constant_A
from epcag_lab.manifold import (
    ManifoldFn,
    ManifoldParams,
    invariance_check,
    jacobian_F,
    off_manifold_diagnose,
    picard_stable,
    picard_unstable,
)
from epcag_lab.reduction import reduce
from epcag_lab.solver import solve_forward
from epcag_lab.system import get_problem


def diag_reduced(**kw):
    spec = get_problem("diag-dichotomy", **kw)
    return reduce(spec, dichotomy_for_constant_A(spec.a_constant))


@pytest.fixture(scope="module")
def red_small():
    # L = 0.04, frozen-argument coupling
    return diag_reduced(coupling=0.02)


def test_zero_nonlinearity_fixed_point(red_small):
    red0 = diag_reduced()
    for c in (0.0, 0.5, -1.5):
        res = picard_stable(red0, 0.0, [c])
        assert np.all(res.f_value == 0.0)
        assert res.iterations == 1
        assert res.converged


def test_zero_anchor_trajectory_stays_zero(red_small):
    res = picard_stable(red_small, 0.0, [0.0])
    assert np.all(res.zs == 0.0)
    assert np.all(res.f_value == 0.0)


@pytest.mark.parametrize("arg", ["frozen", "state"])
def test_decay_oracle_forward_integration(arg):
    # g_plus = 0.02 sin(v-part), g_minus = 0.02 sin(u-part): evaluate F,
    # then independently integrate the full equation forward and verify
    # the decay estimate with alpha = sigma/2, eps = K
    red = diag_reduced(coupling=0.02, coupling_arg=arg)
    res = picard_stable(red, 0.0, [0.5])
    rspec = red.reduced_spec()
    z0 = np.concatenate([res.c, res.f_value])
    path = solve_forward(rspec, 0.0, z0, 10.0)
    norms = np.linalg.norm(path.ys, axis=1)
    bound = (1.0 + 1.0) * 0.5 * np.exp(-0.5 * path.ts)
    assert np.all(norms <= bound + 1e-8)


def test_iterate_decay_certificates(red_small):
    res = picard_stable(red_small, 0.0, [0.9])
    assert res.decay_ok
    assert max(res.decay_margins) <= 0.0


def test_contraction_ratio_within_bound(red_small):
    res = picard_stable(red_small, 1.0, [0.7])
    K, s, a, th, L = 1.0, 1.0, 0.5, 1.0, red_small.L
    bound = 2 * K * L * (1 + math.exp(s * th)) / (s - a)
    assert res.contraction_ratios
    assert all(r <= bound * 1.1 for r in res.contraction_ratios)


def test_fixed_point_residual(red_small):
    res = picard_stable(red_small, 0.0, [0.5])
    again = picard_stable(red_small, 0.0, [0.5], initial=res.zs)
    assert again.sup_changes[0] <= 10.0 * 1e-8


def test_uniqueness_from_different_initial_iterates(red_small):
    res = picard_stable(red_small, 0.0, [0.5])
    rng = np.random.default_rng(9)
    z0 = rng.uniform(-0.05, 0.05, size=res.zs.shape)
    res2 = picard_stable(red_small, 0.0, [0.5], initial=z0)
    assert np.abs(res2.zs - res.zs).max() <= 10.0 * 1e-8


def test_manifold_lipschitz_certificate(red_small):
    mf = ManifoldFn(red_small, "stable")
    K, s, a, th, L = 1.0, 1.0, 0.5, 1.0, red_small.L
    const = 2 * K ** 2 * L * (1 + math.exp(s * th)) / (s + a)
    rng = np.random.default_rng(10)
    for _ in range(6):
        c1, c2 = rng.uniform(-1.0, 1.0, 2)
        F1 = mf.value(0.0, [c1])
        F2 = mf.value(0.0, [c2])
        assert np.linalg.norm(F1 - F2) <= const * abs(c1 - c2) + 1e-7


def test_linear_coupling_dense_algebra_oracle():
    # linear frozen coupling: the discrete fixed point solves a linear
    # system; probe the affine operator and solve it directly
    a = 0.05

    def f(t, y, w):
        return np.stack([np.zeros_like(w[..., 1]), a * w[..., 0]], axis=-1)

    red = diag_reduced(f=f, lip=a)
    params = ManifoldParams(tol=1e-12, substeps=16, horizon=8.0)
    res = picard_stable(red, 0.0, [0.5], params)

    from epcag_lab._quadrature import IntegralOperator, accumulate_backward, accumulate_forward

    ws = IntegralOperator(red, red.spec.grid, 0.0, 8.0, 16)
    mesh = ws.mesh
    starts, ends = mesh.block_starts, mesh.block_ends

    def apply_op(zflat):
        z = zflat.reshape(mesh.size, 2)
        gv = red.g(mesh.ts, z, z[mesh.beta_idx])
        gc = red.g(mesh.ts[ends], z[ends], z[starts])
        u = accumulate_forward(ws.Fp, ws.Bp, gv[:, :1], mesh, np.array([0.5]),
                               gc[:, :1])
        v = accumulate_backward(ws.Fm, ws.Bm, gv[:, 1:], mesh, np.zeros(1),
                                gc[:, 1:])
        return np.concatenate([u, v], axis=1).ravel()

    N = mesh.size * 2
    b = apply_op(np.zeros(N))
    M = np.empty((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        M[:, j] = apply_op(e) - b
    z_direct = np.linalg.solve(np.eye(N) - M, b).reshape(mesh.size, 2)
    assert np.abs(z_direct - res.zs).max() <= 1e-10
    # jacobian against the linear-oracle slope dF/dc = v(t0)/c
    mf = ManifoldFn(red, "stable", params)
    J = mf.jacobian(0.0, [0.5])
    assert J[0, 0] == pytest.approx(z_direct[0, 1] / 0.5, rel=1e-6)


def test_jacobian_zero_for_zero_nonlinearity():
    red0 = diag_reduced()
    mf = ManifoldFn(red0, "stable")
    J = mf.jacobian(0.0, [0.4])
    assert J.shape == (1, 1)
    assert np.all(J == 0.0)


def test_jacobian_matches_finite_differences(red_small):
    params = ManifoldParams(tol=1e-12)
    mf = ManifoldFn(red_small, "stable", params)
    h = 1e-4
    for c in (-0.8, 0.3, 1.1):
        J = mf.jacobian(0.0, [c])
        fd = (mf.value(0.0, [c + h]) - mf.value(0.0, [c - h])) / (2 * h)
        assert np.linalg.norm(J[:, 0] - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-9)


def test_invariance_zero_case_exact():
    red0 = diag_reduced()
    mf = ManifoldFn(red0, "stable")
    rep = invariance_check(mf, 0.0, [0.6], 5.0)
    assert rep.max_deviation == 0.0


def test_invariance_small_L(red_small):
    mf = ManifoldFn(red_small, "stable")
    rep = invariance_check(mf, 0.0, [0.5], 5.0)
    assert rep.max_deviation <= 50.0 * 1e-7


def test_off_manifold_deviation_grows(red_small):
    mf = ManifoldFn(red_small, "stable")
    F0 = mf.value(0.0, [0.5])
    rspec = red_small.reduced_spec()
    z0 = np.array([0.5, F0[0] + 0.1])
    path = solve_forward(rspec, 0.0, z0, 4.0)
    tk, zk = path.at_knots()
    devs = [np.linalg.norm(z[1:] - mf.value(t, z[:1])) for t, z in zip(tk, zk)]
    assert all(b > a for a, b in zip(devs, devs[1:]))


def test_off_manifold_diagnose_exact_exponential():
    red0 = diag_reduced()
    rep = off_manifold_diagnose(red0, 0.0, [0.0, 0.3], 5.0)
    assert rep.cone_entry_time == 0.0
    assert rep.bound_ok_after_entry
    # f == 0, K = 1: the bound holds with equality up to the 1e-3 slack
    assert rep.growth_exponent == pytest.approx(1.0, abs=1e-6)


def test_off_manifold_diagnose_cone_and_phases(red_small):
    mf = ManifoldFn(red_small, "stable")
    F0 = mf.value(0.0, [0.5])
    rep = off_manifold_diagnose(red_small, 0.0, [0.5, F0[0] + 0.1], 5.0,
                                manifold=mf)
    assert rep.cone_entry_time is not None and rep.cone_entry_time > 0.0
    assert rep.bound_ok_after_entry
    assert rep.pre_entry_contraction_ok
    lam = 1.0 - 1.0 * red_small.L * 2.0 * (1 + math.exp(0.5))
    assert rep.growth_exponent >= lam - 0.05


def test_off_manifold_requires_offset(red_small):
    mf = ManifoldFn(red_small, "stable")
    F0 = mf.value(0.0, [0.5])
    with pytest.raises(InvalidParameterError):
        off_manifold_diagnose(red_small, 0.0, [0.5, F0[0]], 3.0, manifold=mf)


def test_unstable_mirror_zero_case():
    red0 = diag_reduced()
    res = picard_unstable(red0, 0.0, [0.4])
    assert np.all(res.f_value == 0.0)
    # homogeneous backward trajectory decays like e^{sigma (t - t0)}
    v = res.zs[:, 1]
    assert np.allclose(v, 0.4 * np.exp(res.ts - res.t0), atol=1e-8)


def test_unstable_mirror_small_coupling(red_small):
    res = picard_unstable(red_small, 0.0, [0.4])
    assert res.converged and res.decay_ok
    assert abs(res.f_value[0]) < 0.05


def test_unstable_zero_anchor_trajectory(red_small):
    res = picard_unstable(red_small, 0.0, [0.0])
    assert np.all(res.zs == 0.0)
    assert np.all(res.f_value == 0.0)


def test_c2_violation_refused():
    spec = get_problem("forced-scalar")  # f(t,0,0) = 0.5
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    with pytest.raises(ConditionError):
        picard_stable(red, 0.0, [0.1])


def test_anchor_must_be_knot(red_small):
    with pytest.raises(InvalidParameterError):
        picard_stable(red_small, 0.25, [0.5])


@pytest.mark.parametrize("t0,c", [
    (0.0, [math.nan]), (0.0, [math.inf]), (0.0, [-math.inf]),
    (math.inf, [0.1]), (math.nan, [0.1]),
])
def test_non_finite_anchor_is_invalid_parameter(red_small, t0, c):
    mf = ManifoldFn(red_small)
    with pytest.raises(InvalidParameterError):
        mf.value(t0, c)
    with pytest.raises(InvalidParameterError):
        mf.jacobian(t0, c)
    with pytest.raises(InvalidParameterError):
        picard_stable(red_small, t0, c)


def test_outside_contraction_regime_label():
    red = diag_reduced(coupling=0.02)
    # tiny eps makes the decay-budget inequality fail while the iteration
    # itself still contracts
    params = ManifoldParams(eps=1e-3, tol=1e-8)
    res = picard_stable(red, 0.0, [0.2], params)
    assert not res.in_contraction_regime
    assert res.converged


def test_memoized_evaluations(red_small):
    mf = ManifoldFn(red_small, "stable")
    cs = [[0.1 * j] for j in range(1, 7)]
    results = [mf.evaluate(0.0, c) for c in cs]
    for c, res in zip(cs, results):
        assert mf.evaluate(0.0, c) is res
        assert np.array_equal(mf.value(0.0, c), res.f_value)
    assert len(mf._memo) == len(cs)


def test_c4_oscillating_quotients_detected():
    # square-root kink located exactly at the anchor value: difference
    # quotients at step h and h/2 disagree by a factor sqrt(2)
    def f(t, y, w):
        kink = np.sqrt(np.maximum(y[..., 0] - 0.5, 0.0))
        return np.stack([np.zeros_like(kink), 0.02 * kink], axis=-1)

    red = diag_reduced(f=f, lip=0.1)
    mf = ManifoldFn(red, "stable")
    with pytest.raises(ConditionError):
        mf.jacobian(0.0, [0.5])


@pytest.mark.parametrize("kw", [
    dict(tol=0.0), dict(tol=-1.0), dict(tol=math.nan), dict(tol=math.inf),
    dict(horizon=0.0), dict(horizon=-1.0), dict(horizon=math.nan),
])
def test_non_positive_tolerance_or_horizon_is_invalid_parameter(red_small, kw):
    with pytest.raises(InvalidParameterError):
        picard_stable(red_small, 0.0, [0.5], ManifoldParams(**kw))
