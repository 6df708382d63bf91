import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epcag_lab._quadrature import IntegralOperator
from epcag_lab.errors import InvalidParameterError, NoDichotomyError, OutOfWindowError
from epcag_lab.grid import make_uniform_grid
from epcag_lab.integrate import propagator, rk4_final
from epcag_lab.linear import (
    DichotomyData,
    InequalityCheck,
    check_backward_uniqueness,
    check_smallness,
    dichotomy_for_constant_A,
    flow_bounds,
    fundamental_matrix,
    verify_flow_bounds,
)
from epcag_lab.reduction import propagators, reduce
from epcag_lab.system import SystemSpec, get_problem


def _const_spec(A, window=(-5.0, 5.0), mu=None):
    A = np.asarray(A, dtype=float)
    return SystemSpec(
        n=A.shape[0], A=lambda t: A, f=lambda t, y, w: np.zeros_like(y),
        grid=make_uniform_grid(1.0, 0.0, window),
        mu=mu if mu is not None else float(np.linalg.norm(A, 2)),
        lip=0.0, a_constant=A,
    )


def test_fundamental_diag_closed_form():
    spec = _const_spec(np.diag([-1.0, 1.0]))
    for t, s in [(1.0, 0.0), (0.3, -0.7), (-2.0, 1.5)]:
        X = fundamental_matrix(spec, t, s)
        assert np.allclose(X, np.diag([math.exp(-(t - s)), math.exp(t - s)]),
                           atol=1e-10)


def test_fundamental_identity_at_equal_times():
    spec = _const_spec(np.array([[0.0, 1.0], [-2.0, -3.0]]))
    assert np.array_equal(fundamental_matrix(spec, 1.3, 1.3), np.eye(2))


@pytest.mark.parametrize("t,s", [(5.5, 0.0), (0.0, -5.01), (-6.0, 6.0)])
def test_fundamental_matrix_outside_window(t, s):
    spec = _const_spec(np.diag([-1.0, 1.0]))  # window [-5, 5]
    with pytest.raises(OutOfWindowError):
        fundamental_matrix(spec, t, s)


def test_fundamental_scalar_exponential():
    spec = get_problem("paper-example-1")
    X = fundamental_matrix(spec, 1.0, 0.0)
    assert X[0, 0] == pytest.approx(math.exp(2.0), rel=1e-10)


def test_fundamental_matches_expm_oracle():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    spec = _const_spec(A)
    rng = np.random.default_rng(5)
    for _ in range(10):
        s, dt = rng.uniform(-4, 3), rng.uniform(-1.5, 1.5)
        t = float(np.clip(s + dt, -5, 5))
        assert np.allclose(fundamental_matrix(spec, t, s),
                           scipy_linalg.expm(A * (t - s)), atol=1e-9)


def test_const_diag_closed_form_wide_span():
    spec = _const_spec(np.diag([-0.8, 0.5]), window=(-6.0, 6.0))
    rng = np.random.default_rng(6)
    for _ in range(20):
        s = rng.uniform(-1, 1)
        t = s + rng.uniform(-5, 5)
        t = float(np.clip(t, -6, 6))
        X = fundamental_matrix(spec, t, s)
        assert np.allclose(X, np.diag([math.exp(-0.8 * (t - s)),
                                       math.exp(0.5 * (t - s))]), atol=1e-9)


def test_cocycle_property():
    spec = _const_spec(np.array([[0.0, 1.0], [-2.0, -3.0]]))
    rng = np.random.default_rng(7)
    tol = 1e-10
    for _ in range(10):
        s, r, t = np.sort(rng.uniform(-4, 4, 3))
        lhs = fundamental_matrix(spec, t, r) @ fundamental_matrix(spec, r, s)
        rhs = fundamental_matrix(spec, t, s)
        assert np.linalg.norm(lhs - rhs) <= 10 * tol * 100


def test_inverse_identity():
    spec = _const_spec(np.array([[0.0, 1.0], [-2.0, -3.0]]))
    for t, s in [(1.0, 0.0), (2.5, -1.0)]:
        prod = fundamental_matrix(spec, t, s) @ fundamental_matrix(spec, s, t)
        assert np.allclose(prod, np.eye(2), atol=1e-8)


def test_flow_bounds_tight_for_diag():
    spec = _const_spec(np.diag([-1.0, 1.0]), mu=1.0)
    rep = verify_flow_bounds(spec, n_pairs=100, seed=0)
    assert rep.passed and rep.tol == 1e-8
    assert rep.max_violation <= 1e-10  # bounds are attained, not crossed


def test_flow_bounds_zero_matrix():
    spec = _const_spec(np.zeros((2, 2)), mu=0.0)
    rep = verify_flow_bounds(spec, n_pairs=50, seed=0)
    # ||X|| = 1 equals both bounds
    assert rep.passed


@pytest.mark.parametrize("kwargs", [{"pairs": []}, {"pairs": np.empty((0, 2))},
                                    {"n_pairs": 0}, {"n_pairs": -3}],
                         ids=["empty-list", "empty-array", "zero", "negative"])
def test_flow_bounds_with_nothing_to_check_is_invalid(kwargs):
    with pytest.raises(InvalidParameterError):
        verify_flow_bounds(get_problem("diag-dichotomy"), **kwargs)


def test_flow_bounds_scalar_two():
    spec = get_problem("paper-example-1")
    pairs = [(s + d, s) for s in (0.0, 2.0, 4.0) for d in (0.25, 0.5, 1.0)]
    rep = verify_flow_bounds(spec, pairs=pairs)
    assert rep.passed


def test_flow_bounds_M_m_product():
    spec = get_problem("paper-example-1")
    fb = flow_bounds(spec)
    assert fb.M * fb.m == pytest.approx(1.0, abs=1e-12)
    assert fb.M == pytest.approx(math.exp(2.0))


def test_dichotomy_diag():
    d = dichotomy_for_constant_A(np.diag([-1.0, 1.0]))
    assert np.allclose(d.P, np.diag([1.0, 0.0]))
    assert d.K == 1.0 and d.sigma == 1.0 and d.k_plus == 1


def test_dichotomy_three_eigenvalues():
    d = dichotomy_for_constant_A(np.diag([-2.0, -3.0, 4.0]))
    assert np.allclose(d.P, np.diag([1.0, 1.0, 0.0]))
    assert d.sigma == 2.0 and d.K == 1.0 and d.k_plus == 2


def test_dichotomy_conditioned_eigenbasis():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    d = dichotomy_for_constant_A(A)
    vals, vecs = np.linalg.eig(A)
    assert d.sigma == pytest.approx(1.0)
    assert d.k_plus == 2
    assert np.allclose(d.P, np.eye(2), atol=1e-12)
    assert d.K == pytest.approx(np.linalg.cond(vecs, 2))
    # the projection bound holds on samples
    for dt in (0.5, 1.0, 2.0):
        import scipy.linalg
        norm = np.linalg.norm(scipy.linalg.expm(A * dt) @ d.P, 2)
        assert norm <= d.K * math.exp(-d.sigma * dt) + 1e-9


def test_dichotomy_rejects_neutral_eigenvalue():
    with pytest.raises(NoDichotomyError):
        dichotomy_for_constant_A(np.diag([0.0, 1.0]))


def test_backward_uniqueness_zero_lipschitz_always_holds():
    for mu in (0.0, 1.0, 5.0):
        chk = check_backward_uniqueness(mu, 0.0, 1.0)
        assert chk.holds and chk.lhs == 0.0


def test_backward_uniqueness_worked_example():
    chk = check_backward_uniqueness(1.0, 0.01, 1.0)
    # direct arithmetic: 0.01*e*(1 + e*1.01*exp(0.01*e))
    assert chk.lhs == pytest.approx(0.10386874771465136, rel=1e-15)
    assert chk.rhs == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert chk.holds


def test_backward_uniqueness_is_an_inequality_check():
    chk = check_backward_uniqueness(1.0, 0.01, 1.0)
    assert isinstance(chk, InequalityCheck) and chk.name == "backward_uniqueness"
    assert chk.as_dict() == {"name": "backward_uniqueness", "lhs": chk.lhs,
                             "rhs": chk.rhs, "holds": True, "margin": chk.rhs - chk.lhs}


def test_backward_uniqueness_fails_for_larger_lipschitz():
    chk = check_backward_uniqueness(1.0, 0.2, 1.0)
    assert not chk.holds
    assert chk.lhs > chk.rhs


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.3), st.floats(min_value=0.0, max_value=0.3))
def test_backward_uniqueness_monotone_in_lipschitz(l1, l2):
    lo, hi = sorted([l1, l2])
    a = check_backward_uniqueness(1.0, lo, 1.0)
    b = check_backward_uniqueness(1.0, hi, 1.0)
    assert not (b.holds and not a.holds)


def test_smallness_zero_lipschitz_full_margin():
    rep = check_smallness(K=1.0, sigma=1.0, alpha=0.5, theta=1.0, L=0.0, eps=1.0)
    assert rep.all_hold
    assert all(c.lhs == 0.0 or c.name == "contraction" for c in rep.checks)


def test_smallness_worked_example():
    rep = check_smallness(K=1.0, sigma=1.0, alpha=0.5, theta=1.0, L=0.05, eps=1.0)
    c12 = rep["contraction"]
    assert c12.rhs == pytest.approx(0.5 / (2.0 * (1.0 + math.e)), rel=1e-15)
    assert c12.holds
    assert rep["sup_contraction"].lhs == pytest.approx(0.1)
    assert rep["sup_contraction"].holds


def test_smallness_contraction_fails_at_point_one():
    rep = check_smallness(K=1.0, sigma=1.0, alpha=0.5, theta=1.0, L=0.1, eps=1.0)
    assert not rep["contraction"].holds
    assert not rep.all_hold


def test_smallness_invalid_alpha():
    with pytest.raises(InvalidParameterError):
        check_smallness(K=1.0, sigma=1.0, alpha=1.5, theta=1.0, L=0.0, eps=1.0)
    with pytest.raises(InvalidParameterError):
        check_smallness(K=0.5, sigma=1.0, alpha=0.5, theta=1.0, L=0.0, eps=1.0)


# ---------------------------------------------------------------------------
# closed-form constant-A propagator against the RK4 step loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("n_steps", [1, 2, 7, 513])
@pytest.mark.parametrize("s,t", [(0.25, 1.5), (1.5, 0.25)])
def test_constant_propagator_matches_step_loop(n, n_steps, s, t):
    A = np.random.default_rng(n).standard_normal((n, n))
    closed = propagator(A, s, t, n_steps=n_steps)
    loop = rk4_final(lambda tau, Y: A @ Y, s, np.eye(n), t, n_steps)
    assert np.linalg.norm(closed - loop) <= 1e-12 * np.linalg.norm(loop)


def test_constant_propagator_default_steps_match_step_loop():
    A = np.random.default_rng(9).standard_normal((3, 3))
    closed = propagator(A, -0.4, 1.3)
    loop = rk4_final(lambda tau, Y: A @ Y, -0.4, np.eye(3), 1.3, math.ceil(1.7 * 256))
    assert np.linalg.norm(closed - loop) <= 1e-12 * np.linalg.norm(loop)


def test_constant_propagator_identity_and_empty():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    assert np.array_equal(propagator(A, 0.7, 0.7), np.eye(2))
    empty = propagator(np.zeros((0, 0)), 0.0, 1.0)
    assert empty.shape == (0, 0)


# ---------------------------------------------------------------------------
# work counts: a constant system never evaluates A, a time-varying one does
# ---------------------------------------------------------------------------

class _Counted:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def _counted_blocks(red):
    return replace(red, b_plus=_Counted(red.b_plus), b_minus=_Counted(red.b_minus))


def _non_normal_spec():
    # upper triangular, stable leading block coupled into the unstable one:
    # the dichotomy projection is oblique, so reduce takes the eigenbasis route
    A = np.array([[-1.0, 3.0, 0.5, 1.0],
                  [0.0, -2.0, 2.0, 0.0],
                  [0.0, 0.0, 1.0, 4.0],
                  [0.0, 0.0, 0.0, 1.5]])
    return _const_spec(A, window=(-6.0, 6.0))


def test_fundamental_matrix_never_calls_constant_A():
    spec = get_problem("diag-dichotomy")
    counted = replace(spec, A=_Counted(spec.A))
    X = fundamental_matrix(counted, 1.5, -0.5)
    assert counted.A.calls == 0
    assert np.allclose(X, np.diag([math.exp(-2.0), math.exp(2.0)]), rtol=1e-9)


@pytest.mark.parametrize("make_spec", [lambda: get_problem("diag-dichotomy"),
                                       _non_normal_spec])
def test_block_propagators_never_call_constant_blocks(make_spec):
    spec = make_spec()
    counted_spec = replace(spec, A=_Counted(spec.A))
    red = reduce(counted_spec, dichotomy_for_constant_A(spec.a_constant))
    assert isinstance(red.b_plus, np.ndarray) and isinstance(red.b_minus, np.ndarray)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split = propagators(red, verify=True)
    assert split.checks
    IntegralOperator(red, spec.grid, -2.0, 3.0, 16)
    assert counted_spec.A.calls == 0


def test_non_normal_spec_takes_eigenbasis_route():
    spec = _non_normal_spec()
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    assert not np.allclose(red.u_trans, np.eye(4))


def _time_varying_spec():
    def A(t):
        return np.diag([-1.0 - 0.1 * np.sin(t), 1.0 + 0.1 * np.cos(t)])

    return SystemSpec(
        n=2, A=A, f=lambda t, y, w: np.zeros_like(y),
        grid=make_uniform_grid(1.0, 0.0, (-6.0, 6.0)), mu=1.1, lip=0.0,
    )


@pytest.mark.parametrize("t,s", [(1.3, 0.0), (-0.5, 2.0), (0.0, 0.01)])
def test_time_varying_propagator_steps_through_A(t, s):
    spec = _time_varying_spec()
    counted = replace(spec, A=_Counted(spec.A))
    fundamental_matrix(counted, t, s)
    n_steps = max(4, math.ceil(abs(t - s) * 256))
    assert counted.A.calls == 2 * n_steps + 1  # once per distinct stage time


def test_time_varying_blocks_step_through_block_eval():
    spec = _time_varying_spec()
    dich = DichotomyData(P=np.diag([1.0, 0.0]), K=1.0, sigma=0.9, k_plus=1)
    red = _counted_blocks(reduce(spec, dich))
    op = IntegralOperator(red, spec.grid, 0.0, 2.0, 8)
    per_block = 2 * (op.mesh.size - 1) * (2 * 2 + 1)  # F and B, two micro-steps
    assert (red.b_plus.calls, red.b_minus.calls) == (per_block, per_block)
