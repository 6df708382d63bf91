import math
from dataclasses import replace

import numpy as np
import pytest

from epcag_lab.errors import ConditionError, InvalidParameterError
from epcag_lab.grid import make_explicit_grid, make_uniform_grid
from epcag_lab.linear import dichotomy_for_constant_A
from epcag_lab.reduction import reduce
from epcag_lab.steady import (
    SteadyParams,
    bounded_solution,
    periodic_solution,
    periodicity_params,
)
from epcag_lab.system import SystemSpec, get_problem


def reduced(name, **kw):
    spec = get_problem(name, **kw)
    return reduce(spec, dichotomy_for_constant_A(spec.a_constant))


def test_zero_forcing_gives_zero_solution():
    red = reduced("forced-scalar", level=0.0)
    res = bounded_solution(red, window=(0.0, 4.0))
    assert np.abs(res.zs).max() == 0.0
    assert res.iterations <= 2


def test_constant_forcing_settles_at_half():
    red = reduced("forced-scalar")
    res = bounded_solution(red, window=(0.0, 5.0))
    assert np.abs(res.zs - 0.5).max() <= 1e-8
    assert res.bound == pytest.approx(1.0)
    assert res.sup_norm <= res.bound + 1e-9


def test_weak_feedback_certificates():
    red = reduced("forced-scalar", feedback=0.1)
    res = bounded_solution(red, window=(0.0, 5.0), store_iterates=True)
    # fixed point of u = 0.5 + 0.1 u is 5/9
    assert np.abs(res.zs - 0.5 / 0.9).max() <= 1e-7
    K, s, L, H = 1.0, 1.0, red.L, res.H
    assert H == pytest.approx(0.5)
    for m, d in enumerate(res.iterate_diffs):
        assert d <= (2 * K * L / s) ** (m + 1) * H / L + 1e-9
    assert np.abs(res.iterates[0]).max() <= K * H / s + 1e-9


def test_uniqueness_probe():
    red = reduced("forced-scalar", feedback=0.1)
    res = bounded_solution(red, window=(0.0, 3.0), probe=True, seed=3)
    assert res.probe_residual <= 10.0 * 1e-9


@pytest.mark.parametrize("window", [(5.0, 0.0), (2.0, 2.0), (0.0, np.inf),
                                    (np.nan, 1.0)])
def test_bad_window_is_invalid_parameter(window):
    red = reduced("forced-scalar")
    with pytest.raises(InvalidParameterError, match="lo < hi"):
        bounded_solution(red, window=window)


def test_contraction_condition_refused_with_margin():
    red = reduced("forced-scalar", feedback=0.6)  # 2KL/sigma = 2.4
    with pytest.raises(ConditionError) as exc:
        bounded_solution(red, window=(0.0, 2.0))
    assert "margin" in str(exc.value)


def test_h0_required():
    spec = get_problem("forced-scalar")
    spec = replace(spec, h0=None)
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    with pytest.raises(ConditionError):
        bounded_solution(red, window=(0.0, 2.0))


def test_h0_bound_verified_by_sampling():
    spec = get_problem("forced-scalar")  # f(t,0,0) = 0.5
    spec = replace(spec, h0=0.1)
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    with pytest.raises(ConditionError):
        bounded_solution(red, window=(0.0, 2.0))


def test_periodicity_params_examples():
    pp = periodicity_params(1.0, 0.5)
    assert (pp.k, pp.m, pp.period) == (2, 1, 1.0)
    pp = periodicity_params(1.0, 1.0)
    assert (pp.k, pp.m, pp.period) == (1, 1, 1.0)
    pp = periodicity_params(2.0, 3.0)
    assert (pp.k, pp.m, pp.period) == (2, 3, 6.0)
    assert math.gcd(pp.k, pp.m) == 1


def test_periodicity_params_rejects_unresolvable_ratio():
    with pytest.raises(InvalidParameterError):
        periodicity_params(1.0 + 1.0143e-7 * math.pi, 1.0)


def test_periodic_coupled_full_run():
    red = reduced("periodic-coupled")
    res = periodic_solution(red)
    assert (res.pparams.k, res.pparams.m) == (2, 1)
    assert res.pparams.period == pytest.approx(1.0)
    assert res.residual <= 1e-6
    assert res.certified
    assert all(r <= 1e-8 for r in res.iterate_residuals)


def test_periodic_autonomous_case():
    red = reduced("forced-scalar")  # no declared period, autonomous
    res = periodic_solution(red)
    assert (res.pparams.k, res.pparams.m) == (1, 1)
    assert res.residual <= 1e-8


def test_periodic_zero_nonlinearity():
    spec = get_problem("forced-scalar", level=0.0)
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    res = periodic_solution(red)
    assert res.residual == 0.0
    assert np.abs(res.bounded.zs).max() == 0.0


def test_periodic_wrong_declared_period_refused():
    spec = get_problem("periodic-coupled")
    spec = replace(spec, period=0.7)
    red = reduce(spec, dichotomy_for_constant_A(spec.a_constant))
    with pytest.raises(ConditionError):
        periodic_solution(red)


def test_periodic_requires_periodic_grid_metadata():
    A = np.array([[-1.0]])
    spec = SystemSpec(
        n=1, A=lambda t: A, f=lambda t, y, w: 0.1 + 0.0 * w,
        grid=make_explicit_grid(np.linspace(0.0, 4.0, 9)),
        mu=1.0, lip=0.0, h0=0.1, a_constant=A,
    )
    red = reduce(spec, dichotomy_for_constant_A(A))
    with pytest.raises(ConditionError):
        periodic_solution(red)


def test_two_sided_bounded_solution():
    # genuinely hyperbolic two-sided system with a bounded forcing
    A = np.diag([-1.0, 1.0])

    def f(t, y, w):
        drive = np.cos(2 * np.pi * np.asarray(t, dtype=float))
        return np.stack([0.3 * drive + 0.0 * w[..., 0],
                         0.2 * np.broadcast_to(drive, w[..., 1].shape)], axis=-1)

    spec = SystemSpec(
        n=2, A=lambda t: A, f=f, grid=make_uniform_grid(0.5, 0.0, (0.0, 3.0)),
        mu=1.0, lip=0.0, h0=float(np.hypot(0.3, 0.2)), period=1.0, a_constant=A,
    )
    red = reduce(spec, dichotomy_for_constant_A(A))
    res = bounded_solution(red, window=(0.0, 2.0))
    assert res.sup_norm <= res.bound + 1e-9
    # v-component solves v' = v + 0.2 cos(2 pi t) bounded on the line:
    # v(t) = -0.2 (cos(2 pi t) - 2 pi sin(2 pi t)) / (1 + 4 pi^2)
    tt = res.ts
    w0 = 2 * np.pi
    want = -0.2 * (np.cos(w0 * tt) - w0 * np.sin(w0 * tt)) / (1 + w0 ** 2)
    assert np.abs(res.zs[:, 1] - want).max() <= 1e-6
    # and the periodic residual certifies 1-periodicity
    pres = periodic_solution(red)
    assert pres.residual <= 1e-7


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_non_positive_tolerance_is_invalid_parameter(tol):
    with pytest.raises(InvalidParameterError):
        bounded_solution(reduced("forced-scalar"), window=(0.0, 3.0),
                         params=SteadyParams(tol=tol))
    with pytest.raises(InvalidParameterError):
        periodic_solution(reduced("periodic-coupled"), params=SteadyParams(tol=tol))
