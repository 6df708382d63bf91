import dataclasses
import math

import numpy as np
import pytest

from epcag_lab.errors import InvalidParameterError, UnsupportedSystemError
from epcag_lab.grid import make_uniform_grid
from epcag_lab.linear import dichotomy_for_constant_A
from epcag_lab.reduction import propagators, reduce
from epcag_lab.solver import solve_forward
from epcag_lab.system import REGISTRY_NAMES, SystemSpec, get_problem


def _spec(A, f=None, lip=0.0, window=(-6.0, 6.0)):
    A = np.asarray(A, dtype=float)
    if f is None:
        f = lambda t, y, w: np.zeros_like(y)
    return SystemSpec(
        n=A.shape[0], A=lambda t: A, f=f,
        grid=make_uniform_grid(1.0, 0.0, window),
        mu=float(np.linalg.norm(A, 2)), lip=lip, a_constant=A,
    )


def test_identity_route_diag():
    def f(t, y, w):
        return np.stack([0.1 * np.sin(y[..., 1]), 0.1 * np.sin(y[..., 0])], axis=-1)

    spec = _spec(np.diag([-1.0, 1.0]), f=f, lip=0.1)
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    assert np.array_equal(red.u_trans, np.eye(2))
    assert red.k == 1 and red.m == 1
    assert red.b_plus[0, 0] == -1.0
    assert red.b_minus[0, 0] == 1.0
    assert red.L == pytest.approx(0.2)  # 2*l with sup||U|| = 1
    # g is the coordinate split of f
    z = np.array([0.3, -0.7])
    w = np.array([0.1, 0.2])
    gp, gm = red.split(red.g(0.0, z, w))
    fv = spec.eval_f(0.0, z, w)
    assert gp[0] == fv[0] and gm[0] == fv[1]


def test_constant_eigen_route_spectra():
    A = np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 0.5], [0.0, 0.0, 3.0]])
    spec = _spec(A)
    red = reduce(spec, dichotomy_for_constant_A(A))
    assert red.k == 2 and red.m == 1
    Bp, Bm = red.b_plus, red.b_minus
    assert sorted(np.linalg.eigvals(Bp).real) == pytest.approx([-2.0, -1.0])
    assert np.linalg.eigvals(Bm).real == pytest.approx([3.0])
    # conjugation produces exactly the box-diagonal form
    got = red.u_trans_inv @ A @ red.u_trans
    want = np.zeros((3, 3))
    want[:2, :2] = Bp
    want[2:, 2:] = Bm
    assert np.allclose(got, want, atol=1e-12)
    # normalization makes the declared L a true bound
    assert np.linalg.norm(red.u_trans_inv, 2) == pytest.approx(1.0)


def test_constant_eigen_route_with_a_complex_pair():
    # a stable complex pair -1 +- 2i: its invariant plane comes from the real
    # and imaginary parts of one eigenvector
    A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.5, 0.0, 1.5]])
    red = reduce(_spec(A), dichotomy_for_constant_A(A))
    assert red.k == 2 and red.m == 1
    got = red.u_trans_inv @ A @ red.u_trans
    assert np.max(np.abs(got[:2, 2:])) <= 1e-12
    assert np.max(np.abs(got[2:, :2])) <= 1e-12
    plus = sorted(np.linalg.eigvals(red.b_plus), key=lambda z: z.imag)
    assert plus == pytest.approx([-1.0 - 2.0j, -1.0 + 2.0j], abs=1e-12)
    assert np.linalg.eigvals(red.b_minus) == pytest.approx([1.5], abs=1e-12)
    assert np.linalg.norm(red.u_trans_inv, 2) == pytest.approx(1.0, abs=1e-12)


def test_zero_nonlinearity_gives_zero_L():
    spec = _spec(np.diag([-1.0, 1.0]))
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    assert red.L == 0.0
    z = np.zeros(2)
    assert np.all(red.g(0.0, z, z) == 0.0)


def test_stable_block_ordering_for_swapped_diag():
    spec = _spec(np.diag([1.0, -1.0]))  # expanding first: needs a permutation
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    assert red.k == 1 and red.m == 1
    assert red.b_plus[0, 0] == pytest.approx(-1.0)
    assert red.b_minus[0, 0] == pytest.approx(1.0)


def test_propagator_scalars():
    spec = _spec(np.diag([-1.0, 1.0]))
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    sp = propagators(red, n_pairs=5)
    assert sp.uprop(1.0, 0.0)[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-10)
    # expanding block decays backward: ||vprop(t,s)|| <= K e^{sigma (t-s)}, t <= s
    for t, s in [(0.0, 1.0), (-1.0, 1.5)]:
        nrm = np.linalg.norm(sp.vprop(t, s), 2)
        assert nrm <= red.K * math.exp(red.sigma * (t - s)) + 1e-9


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_propagator_check_without_pairs_is_invalid(n_pairs):
    red = reduce(_spec(np.diag([-1.0, 1.0])), dichotomy_for_constant_A(np.diag([-1.0, 1.0])))
    with pytest.raises(InvalidParameterError):
        propagators(red, n_pairs=n_pairs)
    sp = propagators(red, verify=False, n_pairs=n_pairs)
    assert sp.checks == () and sp.worst_violation is None


def test_propagator_triangular_closed_form():
    # upper triangular block: closed-form exponential
    A = np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 1.0]])
    spec = _spec(A)
    red = reduce(spec, dichotomy_for_constant_A(A))
    sp = propagators(red, verify=False)
    U10 = sp.uprop(1.0, 0.0)
    Bp = red.b_plus
    lam = np.sort(np.linalg.eigvals(Bp).real)
    assert lam == pytest.approx([-2.0, -1.0])
    # oracle: exp of the 2x2 block through its own triangularization
    import scipy.linalg
    assert np.allclose(U10, scipy.linalg.expm(Bp), atol=1e-9)
    # and the familiar e^{-1}, e^{-2}, (e^{-1} - e^{-2}) structure survives
    want = np.array([[math.exp(-1.0), math.exp(-1.0) - math.exp(-2.0)],
                     [0.0, math.exp(-2.0)]])
    assert np.allclose(scipy.linalg.expm(np.array([[-1.0, 1.0], [0.0, -2.0]])),
                       want, atol=1e-12)


def test_conjugacy_roundtrip_one_gap():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])

    def f(t, y, w):
        return 0.05 * np.sin(w)

    spec = _spec(A, f=f, lip=0.05)
    red = reduce(spec, dichotomy_for_constant_A(A))
    rspec = red.reduced_spec()
    rng = np.random.default_rng(11)
    for _ in range(5):
        z0 = rng.uniform(-1, 1, 2)
        y0 = red.u_trans @ z0
        z_path = solve_forward(rspec, 0.0, z0, 1.0, substeps=128)
        y_path = solve_forward(spec, 0.0, y0, 1.0, substeps=128)
        back = red.u_trans @ z_path.ys[-1]
        assert np.linalg.norm(back - y_path.ys[-1]) <= 1e-6


def test_lipschitz_transfer_sampled():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])

    def f(t, y, w):
        return 0.05 * np.sin(y) + 0.02 * np.cos(t) * np.sin(w)

    spec = _spec(A, f=f, lip=0.07)
    red = reduce(spec, dichotomy_for_constant_A(A))
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(300):
        z1, z2, w1, w2 = (rng.uniform(-1, 1, 2) for _ in range(4))
        t = rng.uniform(-4, 4)
        num = (np.linalg.norm(red.g(t, z1, w1) - red.g(t, z2, w2)))
        den = np.linalg.norm(z1 - z2) + np.linalg.norm(w1 - w2)
        worst = max(worst, num / den)
    assert worst <= red.L + 1e-12


def test_propagator_cocycle():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    spec = _spec(A)
    red = reduce(spec, dichotomy_for_constant_A(A))
    sp = propagators(red, verify=False)
    s, r, t = -1.0, 0.5, 2.0
    assert np.allclose(sp.uprop(t, r) @ sp.uprop(r, s), sp.uprop(t, s), atol=1e-8)


def _time_varying_reduction():
    def A(t):
        return np.diag([-1.0 - 0.1 * np.sin(t), 1.0 + 0.1 * np.cos(t)])

    spec = SystemSpec(
        n=2, A=A, f=lambda t, y, w: np.zeros_like(y),
        grid=make_uniform_grid(1.0, 0.0, (-6.0, 6.0)), mu=1.1, lip=0.0,
    )
    from epcag_lab.linear import DichotomyData
    dich = DichotomyData(P=np.diag([1.0, 0.0]), K=1.0, sigma=0.9, k_plus=1)
    return spec, reduce(spec, dich)


def test_time_varying_box_diagonal_supported():
    _spec, red = _time_varying_reduction()
    assert red.k == 1 and callable(red.b_plus) and callable(red.b_minus)
    assert red.b_plus(0.0)[0, 0] == pytest.approx(-1.0)


def test_time_varying_reduced_spec_evaluates_A():
    spec, red = _time_varying_reduction()
    rspec = red.reduced_spec()
    assert rspec.a_constant is None and rspec.name == "custom-reduced"
    for t in (-5.5, -0.3, 0.0, 2.7, 6.0):
        assert np.array_equal(rspec.eval_A(t), spec.eval_A(t))


def test_time_varying_blocks_wrap_with_period():
    _spec, red = _time_varying_reduction()
    omega = 2.5
    wrapped = red.with_time_wrapped(omega)
    for t in (-4.1, -0.2, 0.0, 1.3, 3.9):
        for block in (wrapped.b_plus, wrapped.b_minus):
            assert block(t + omega) == pytest.approx(block(t), abs=1e-14)
    # argument reduction: the wrapped block at t is the original at t mod omega
    assert np.array_equal(wrapped.b_plus(3.9), red.b_plus(3.9 - omega))


def test_constant_blocks_unchanged_by_time_wrapping():
    spec = _spec(np.diag([-1.0, 1.0]))
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    wrapped = red.with_time_wrapped(1.5)
    assert wrapped.b_plus is red.b_plus and wrapped.b_minus is red.b_minus


def test_time_varying_general_rejected():
    def A(t):
        return np.array([[0.0, 1.0 + 0.1 * np.sin(t)], [-2.0, -3.0]])

    spec = SystemSpec(
        n=2, A=A, f=lambda t, y, w: np.zeros_like(y),
        grid=make_uniform_grid(1.0, 0.0, (-6.0, 6.0)), mu=3.2, lip=0.0,
    )
    from epcag_lab.linear import DichotomyData
    dich = DichotomyData(P=np.diag([1.0, 0.0]), K=2.0, sigma=0.5, k_plus=1)
    with pytest.raises(UnsupportedSystemError):
        reduce(spec, dich)


@pytest.mark.parametrize("name", REGISTRY_NAMES)
def test_reduce_works_out_the_dichotomy_of_a_constant_A(name):
    spec = get_problem(name)
    own = reduce(spec)
    given = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    z = np.linspace(0.1, 0.2, spec.n)
    for field in dataclasses.fields(own):
        a, b = getattr(own, field.name), getattr(given, field.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        elif callable(a):
            assert np.array_equal(a(0.3, z, -z), b(0.3, z, -z)), field.name
        else:
            assert a == b, field.name


def test_reduce_of_a_time_varying_A_needs_its_dichotomy():
    spec, _red = _time_varying_reduction()
    with pytest.raises(UnsupportedSystemError, match="constant coefficient matrix"):
        reduce(spec)


def test_registry_paper_example_reduces_fully_unstable():
    spec = get_problem("paper-example-1")
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    assert red.k == 0 and red.m == 1
    assert red.b_minus[0, 0] == 2.0
