"""The closed-form affine RK4 path against the RK4 step loop it replaces.

For a right-hand side affine in y both compute the same RK4 steps; only
the order of the floating-point operations differs, so they must agree to
1e-12 relative (the norm of the difference against the norm of the loop's
result).
"""

import dataclasses
import math

import numpy as np
import pytest

from epcag_lab import solver
from epcag_lab.errors import BlowUpError, EvaluationError, InvalidParameterError
from epcag_lab.grid import make_uniform_grid
from epcag_lab.integrate import Affine, WeightPlan, propagator, rk4_final, rk4_segment
from epcag_lab.linear import fundamental_matrix
from epcag_lab.solver import shooting_map, solve_forward
from epcag_lab.system import REGISTRY_NAMES, SystemSpec, get_problem, parse_system

RTOL = 1e-12


def _close(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


def _time_varying_A(n):
    """A(t) of size n whose values at different times do not commute
    (a callable of one time)."""
    rng = np.random.default_rng(n)
    B, C = rng.standard_normal((2, n, n))
    D = np.diag(-0.5 + 0.3 * np.arange(n))

    def A(t):
        return D + 0.4 * math.sin(t) * B + 0.2 * math.cos(3 * t) * C

    return A


# ---------------------------------------------------------------------------
# the kernel on its own
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [1, 7, 64, 257])
@pytest.mark.parametrize("s,t", [(0.25, 1.5), (1.5, 0.25)])
def test_time_varying_propagator_matches_step_loop(n, n_steps, s, t):
    A = _time_varying_A(n)
    loop = rk4_final(lambda tau, Y: A(tau) @ Y, s, np.eye(n), t, n_steps)
    _close(propagator(A, s, t, n_steps=n_steps), loop)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forced_segment_and_final_match_step_loop(n):
    A = _time_varying_A(n)
    W = np.random.default_rng(10 + n).uniform(-1.0, 1.0, (5, n))

    def g(ts):  # one row of forcing per state of the batch W
        ts = np.asarray(ts)[..., None, None]
        return np.sin(2.0 * ts + W) + 0.3 * W ** 2

    def rhs(t, y):
        return y @ A(t).T + g(t)

    affine = Affine(A, g)
    _close(rk4_final(affine, 0.0, W, 0.8, 40), rk4_final(rhs, 0.0, W, 0.8, 40))
    for got, want in zip(rk4_segment(affine, 0.8, W, -0.3, 33),
                         rk4_segment(rhs, 0.8, W, -0.3, 33)):
        _close(got, want)


def test_constant_A_samples_no_time():
    calls = []

    def g(ts):
        calls.append(len(ts))
        return np.ones((len(ts), 2))

    A = np.array([[-1.0, 2.0], [0.0, 0.5]])
    ts, ys, ds = rk4_segment(Affine(A, g), 0.0, np.zeros(2), 1.0, 10)
    assert calls == [21]  # g once, at the 2 * 10 + 1 stage times
    loop = rk4_segment(lambda t, y: A @ y + 1.0, 0.0, np.zeros(2), 1.0, 10)
    for got, want in zip((ts, ys, ds), loop):
        _close(got, want)


def test_time_array_A_is_sampled_in_one_call():
    spec = parse_system(_Y_FREE_CONFIG)
    calls = []
    inner = spec.A

    def A(t):
        calls.append(np.shape(t))
        return inner(t)

    A.takes_time_arrays = True
    X = propagator(A, 0.2, 1.1, n_steps=16)
    assert calls == [(33,)]
    _close(X, propagator(lambda t: inner(t), 0.2, 1.1, n_steps=16))


def test_domain_error_of_config_A_over_times_raises():
    spec = parse_system(_Y_FREE_CONFIG.replace("-0.5 + 0.2*sin(t)", "log(t)"))
    assert spec.eval_A(np.array([0.5, 2.0])).shape == (2, 2, 2)
    with pytest.raises(EvaluationError):
        fundamental_matrix(spec, 1.0, -0.5)


# ---------------------------------------------------------------------------
# the solver's affine path against its step loop
# ---------------------------------------------------------------------------

_Y_FREE_CONFIG = """
[system]
n = 2
A11 = -0.5 + 0.2*sin(t)
A12 = 0.3
A21 = -0.1*cos(t)
A22 = 0.4
f1 = 0.05*sin(w2) + 0.1*cos(2*t)
f2 = 0.02*w1^2 - 0.01*t*w2

[grid]
step = 1.0
window = -2 4

[constants]
mu = 1.0
lip = 0.1
"""

_SPECS = {name: (lambda name=name: get_problem(name)) for name in REGISTRY_NAMES}
_SPECS["diag-dichotomy-frozen"] = lambda: get_problem("diag-dichotomy", coupling=0.3)
_SPECS["forced-scalar-feedback"] = lambda: get_problem("forced-scalar", feedback=0.4)
_SPECS["config-y-free"] = lambda: parse_system(_Y_FREE_CONFIG)


def _loop(spec):
    return dataclasses.replace(spec, f_ignores_y=False)


def test_flag_follows_the_f_trees_and_the_coupling():
    assert parse_system(_Y_FREE_CONFIG).f_ignores_y
    assert not parse_system(_Y_FREE_CONFIG.replace("0.02*w1^2", "0.02*y1^2")).f_ignores_y
    assert all(get_problem(name).f_ignores_y for name in REGISTRY_NAMES)
    assert not get_problem("diag-dichotomy", coupling=0.3, coupling_arg="state").f_ignores_y


@pytest.mark.parametrize("key", list(_SPECS))
@pytest.mark.parametrize("substeps", [16, 64, 256])
def test_affine_phi_batch_matches_step_loop(key, substeps):
    spec = _SPECS[key]()
    assert spec.f_ignores_y
    i = 1
    a, b = spec.grid.knot(i), spec.grid.knot(i + 1)
    X = np.random.default_rng(substeps).uniform(-2.0, 2.0, (40, spec.n))
    for t_target in (b, a + 0.3 * (b - a)):
        _close(solver._phi_batch(spec, i, X, t_target, substeps),
               solver._phi_batch(_loop(spec), i, X, t_target, substeps))


@pytest.mark.parametrize("key", list(_SPECS))
def test_affine_forward_paths_match_step_loop(key):
    spec = _SPECS[key]()
    t0 = spec.grid.knot(1)
    x0 = np.linspace(0.4, -0.7, spec.n)
    _close(shooting_map(spec, 1, x0), shooting_map(_loop(spec), 1, x0))
    fast = solve_forward(spec, t0, x0, spec.grid.knot(3) - 0.3, substeps=32)
    slow = solve_forward(_loop(spec), t0, x0, spec.grid.knot(3) - 0.3, substeps=32)
    assert np.array_equal(fast.ts, slow.ts)
    assert np.array_equal(fast.intervals, slow.intervals)
    for attr in ("ys", "derivs", "frozen"):
        _close(getattr(fast, attr), getattr(slow, attr))


@pytest.mark.parametrize("key", list(_SPECS))
def test_zero_length_path_stores_the_derivative(key):
    spec = _SPECS[key]()
    t0 = spec.grid.knot(1)
    x0 = np.linspace(0.4, -0.7, spec.n)
    path = solve_forward(spec, t0, x0, t0)
    want = spec.eval_A(t0) @ x0 + spec.eval_f(t0, x0, x0)
    assert path.ys.shape == path.derivs.shape == (1, spec.n)
    _close(path.derivs[0], want)
    _close(path.derivs[0], solve_forward(_loop(spec), t0, x0, t0).derivs[0])


def test_overflow_stays_row_local_in_phi_batch():
    spec = get_problem("paper-example-1")
    X = np.array([[0.5], [1e200], [-1.5], [3e160]])
    out = solver._phi_batch(spec, 0, X, 1.0, 64)
    assert np.isfinite(out[[0, 2]]).all() and not np.isfinite(out[[1, 3]]).any()
    _close(out[[0, 2]], solver._phi_batch(spec, 0, X[[0, 2]], 1.0, 64))
    _close(out[[0, 2]], solver._phi_batch(_loop(spec), 0, X[[0, 2]], 1.0, 64))


@pytest.mark.parametrize("x0", [8e5, 1e6, -2e6])
def test_blow_up_is_raised_at_the_step_of_the_loop(x0):
    spec = get_problem("paper-example-1")
    caught = []
    for s in (spec, _loop(spec)):
        for call in (lambda: shooting_map(s, 0, [x0]),
                     lambda: solve_forward(s, 0.0, [x0], 2.0, substeps=64)):
            with pytest.raises(BlowUpError) as exc:
                call()
            caught.append(exc.value.t)
    assert 0.0 < caught[0] < 1.0
    assert caught[:2] == caught[2:]


def test_domain_error_of_a_single_state_still_raises():
    spec = parse_system(_Y_FREE_CONFIG.replace("0.02*w1^2", "0.02/w1"))
    assert spec.f_ignores_y
    with pytest.raises(EvaluationError):
        solve_forward(spec, 0.0, [0.0, 1.0], 1.0)
    out = solver._phi_batch(spec, 0, np.array([[0.0, 1.0], [0.5, 1.0]]), 1.0, 32)
    assert np.isnan(out[0]).all() and np.isfinite(out[1]).all()


# ---------------------------------------------------------------------------
# one guarded forward path: the shooting map is the end of solve_forward's
# segment, bit for bit, on the affine path and on both step-loop closures
# ---------------------------------------------------------------------------

_FORWARD_SPECS = {name: (lambda name=name: get_problem(name)) for name in REGISTRY_NAMES}
_FORWARD_SPECS["diag-dichotomy-state"] = lambda: get_problem(
    "diag-dichotomy", coupling=0.3, coupling_arg="state")
_FORWARD_SPECS["config-y-reading"] = lambda: parse_system(
    _Y_FREE_CONFIG.replace("0.02*w1^2", "0.02*y1^2"))
_FORWARD_SPECS["time-varying-n2"] = lambda: _time_varying_spec(2)
# 3*h/h rounds above 3 for some gaps h of this grid, so solve_forward takes
# a fourth step there
_FORWARD_SPECS["forced-scalar-step-0.1"] = lambda: get_problem("forced-scalar", step=0.1)


@pytest.mark.parametrize("key", list(_FORWARD_SPECS))
@pytest.mark.parametrize("substeps", [3, 16, 64])
def test_shooting_map_is_the_end_of_the_forward_segment(key, substeps):
    spec = _FORWARD_SPECS[key]()
    rng = np.random.default_rng(substeps)
    for i in (0, 1, 2):
        a, b = spec.grid.knot(i), spec.grid.knot(i + 1)
        x0 = rng.uniform(-2.0, 2.0, spec.n)
        want = solve_forward(spec, a, x0, b, substeps=substeps).ys[-1]
        assert np.array_equal(shooting_map(spec, i, x0, substeps=substeps), want)


@pytest.mark.parametrize("key", ["paper-example-1", "diag-dichotomy", "diag-dichotomy-state",
                                 "config-y-reading", "time-varying-n2"])
def test_shooting_map_blows_up_where_the_forward_segment_does(key):
    spec = _FORWARD_SPECS[key]()
    a, b = spec.grid.knot(1), spec.grid.knot(2)
    x0 = np.full(spec.n, 9e11)
    caught = []
    for call in (lambda: shooting_map(spec, 1, x0), lambda: solve_forward(spec, a, x0, b)):
        with pytest.raises(BlowUpError) as exc:
            call()
        caught.append(exc.value.t)
    assert caught[0] == caught[1] and a < caught[0] <= b


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [1, 7, 64])
@pytest.mark.parametrize("s,t", [(0.25, 1.5), (1.5, 0.25)])
def test_callable_propagator_is_the_last_step_value_of_the_scan(n, n_steps, s, t):
    A = _time_varying_A(n)
    want = rk4_segment(Affine(A), s, np.eye(n), t, n_steps)[1][-1].T
    assert np.array_equal(propagator(A, s, t, n_steps=n_steps), want)


# ---------------------------------------------------------------------------
# the stage weights of the final value against the scan
# ---------------------------------------------------------------------------

def _scan_final(rhs, t0, y, t1, n_steps):
    """The last step value of the prefix scan, as rk4_segment keeps it."""
    return rk4_segment(rhs, t0, y, t1, n_steps)[1][-1]


def _time_varying_spec(n):
    """A system with a time-varying A(t) and an f that reads only t and w."""
    def f(t, y, w):
        return np.sin(2.0 * np.asarray(t)[..., None] + w) + 0.3 * w ** 2

    return SystemSpec(n=n, A=_time_varying_A(n), f=f,
                      grid=make_uniform_grid(1.0, 0.0, (-2.0, 4.0)),
                      mu=2.0, lip=1.0, f_ignores_y=True)


_WEIGHT_SPECS = dict(_SPECS)
for _n in (1, 2, 3):
    _WEIGHT_SPECS[f"time-varying-n{_n}"] = lambda n=_n: _time_varying_spec(n)


@pytest.mark.parametrize("key", list(_WEIGHT_SPECS))
@pytest.mark.parametrize("substeps", [64, 128])
def test_weights_match_scan_on_the_shooting_map(key, substeps):
    spec = _WEIGHT_SPECS[key]()
    assert spec.f_ignores_y
    i = 1
    a, b = spec.grid.knot(i), spec.grid.knot(i + 1)
    X = np.random.default_rng(substeps).uniform(-2.0, 2.0, (40, spec.n))
    for t_target in (b, a + 0.3 * (b - a)):
        _, ns = solver._shooting_steps(spec, i, t_target, substeps)
        rhs = solver._frozen_rhs(spec, X)
        got = solver._phi_batch(spec, i, X, t_target, substeps,
                                WeightPlan(rhs.A, a, t_target, ns))
        _close(got, _scan_final(rhs, a, X, t_target, ns))
        # without a plan rk4_final builds the same one
        assert np.array_equal(got, solver._phi_batch(spec, i, X, t_target, substeps))


def _forced(n, rows):
    A = _time_varying_A(n)
    W = np.random.default_rng(20 + n).uniform(-1.0, 1.0, (rows, n))

    def g(ts):
        return np.sin(2.0 * np.asarray(ts)[:, None, None] + W) + 0.3 * W ** 2

    return A, W, g


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weights_of_a_backward_span_match_scan(n):
    A, W, g = _forced(n, 5)
    _close(rk4_final(Affine(A, g), 0.8, W, -0.3, 33), _scan_final(Affine(A, g), 0.8, W, -0.3, 33))
    _close(rk4_final(Affine(A), 0.8, W, -0.3, 33), _scan_final(Affine(A), 0.8, W, -0.3, 33))


@pytest.mark.parametrize("n", [1, 2])
def test_an_overflowing_row_stays_row_local_in_the_weights(n):
    A, W, g = _forced(n, 6)
    plan = WeightPlan(A, 0.0, 1.0, 64)
    X = np.array(W)
    X[1], X[4] = 1e308, -np.inf  # huge and overflowed states

    def g_bad(ts):  # row 2's forcing overflows at some stage times
        G = np.array(g(ts))
        G[::7, 2] = 1e308
        return G * np.where(np.arange(len(W)) == 2, 10.0, 1.0)[:, None]

    with np.errstate(over="ignore"):
        out = plan.apply(g_bad, X)
    keep = [0, 3, 5]
    assert np.isfinite(out[keep]).all()
    assert not np.isfinite(out[[2, 4]]).all(axis=1).any()
    alone = plan.apply(lambda ts: g(ts)[:, keep], X[keep])
    _close(out[keep], alone)
    _close(alone, _scan_final(Affine(A, lambda ts: g(ts)[:, keep]), 0.0, X[keep], 1.0, 64))


def test_domain_error_of_a_single_state_on_the_weights_keeps_its_position():
    spec = parse_system(_Y_FREE_CONFIG.replace("0.05*sin(w2)", "0.05*sin(w2) + 0.01/w1"))
    assert spec.f_ignores_y
    x = np.array([0.0, 1.0])
    messages = []
    for s in (spec, _loop(spec)):
        with pytest.raises(EvaluationError) as exc:
            solver._phi_batch(s, 0, x, 1.0, 32)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == "division by zero at line 8, column 25"
    out = solver._phi_batch(spec, 0, np.array([x, [0.5, 1.0]]), 1.0, 32)
    assert np.isnan(out[0]).all() and np.isfinite(out[1]).all()


@pytest.mark.parametrize("call", [
    lambda rhs, y, plan: rk4_final(rhs, 0.0, y, 1.0, 32, plan=plan),
    lambda rhs, y, plan: rk4_final(rhs, 0.1, y, 1.0, 64, plan=plan),
    lambda rhs, y, plan: rk4_final(rhs, 0.0, y, 0.9, 64, plan=plan),
    lambda rhs, y, plan: rk4_final(lambda t, y: y, 0.0, y, 1.0, 64, plan=plan),
], ids=["steps", "start", "end", "step-loop"])
def test_a_plan_that_does_not_fit_is_refused(call):
    A, W, g = _forced(2, 3)
    plan = WeightPlan(A, 0.0, 1.0, 64)
    rk4_final(Affine(A, g), 0.0, W, 1.0, 64, plan=plan)  # the span it was built for
    with pytest.raises(InvalidParameterError, match="weight plan"):
        call(Affine(A, g), W, plan)
