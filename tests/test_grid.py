import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epcag_lab.errors import InvalidParameterError, OutOfWindowError
from epcag_lab.grid import ThetaGrid, make_explicit_grid, make_periodic_grid, make_uniform_grid


def _knots_between(g, a, b):
    return g.knots[(g.knots >= a) & (g.knots <= b)].tolist()


def test_uniform_step1_is_integer_grid():
    g = make_uniform_grid(1.0, 0.0, (0.0, 5.0))
    assert _knots_between(g, 0.0, 5.0) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert g.gap_bound == 1.0
    assert g.periodic == (1, 1.0)


def test_uniform_half_step_knots():
    g = make_uniform_grid(0.5, 0.0, (0.0, 1.0))
    assert _knots_between(g, 0.0, 1.0) == [0.0, 0.5, 1.0]


def test_uniform_offset_knots():
    g = make_uniform_grid(1.0, 0.25, (0.0, 3.0))
    assert _knots_between(g, 0.0, 3.0) == [0.25, 1.25, 2.25]


def test_nonpositive_step_rejected():
    with pytest.raises(InvalidParameterError):
        make_uniform_grid(0.0, 0.0, (0.0, 1.0))
    with pytest.raises(InvalidParameterError):
        make_uniform_grid(-1.0, 0.0, (0.0, 1.0))


def test_beta_matches_greatest_integer():
    g = make_uniform_grid(1.0, 0.0, (0.0, 10.0))
    assert g.beta(2.5) == 2.0
    assert g.beta(2.5) == math.floor(2.5)


def test_beta_left_closed_at_knots():
    g = make_uniform_grid(0.5, 0.0, (0.0, 10.0))
    for i in range(5):
        assert g.beta(0.5 * i) == 0.5 * i


def test_beta_explicit_grid_membership():
    g = make_explicit_grid([0.0, 0.3, 1.0, 1.4])
    # direct interval membership: 0.3 <= 0.9 < 1.0
    assert g.beta(0.9) == 0.3


def test_interval_index_examples():
    g = make_uniform_grid(1.0, 0.0, (0.0, 10.0))
    assert g.interval_index(2.5) == 2
    assert g.interval_index(3.0) == 3
    ge = make_explicit_grid([0.0, 0.3, 1.0, 1.4])
    assert ge.interval_index(1.2) == 2


def test_interval_index_consistent_with_beta():
    g = make_periodic_grid([0.0, 0.3], 1.0, (0.0, 8.0))
    for t in np.random.default_rng(1).uniform(0.0, 8.0, 200):
        assert g.knot(g.interval_index(t)) == g.beta(t)


def test_out_of_window_errors():
    g = make_uniform_grid(1.0, 0.0, (0.0, 5.0))
    with pytest.raises(OutOfWindowError):
        g.beta(-0.5)
    with pytest.raises(OutOfWindowError):
        g.interval_index(5.5)
    ge = make_explicit_grid([0.0, 0.3, 1.0, 1.4])
    with pytest.raises(OutOfWindowError):
        ge.beta(1.4)  # no next knot represented


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=99.999))
def test_beta_gap_bound_property(t):
    g = make_uniform_grid(1.0, 0.0, (0.0, 100.0))
    b = g.beta(t)
    assert b <= t < b + g.gap_bound


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=7.0), st.floats(min_value=0.0, max_value=1.0))
def test_beta_constant_on_intervals(t, frac):
    g = make_periodic_grid([0.0, 0.3], 1.0, (0.0, 9.0))
    i = g.interval_index(t)
    a, b = g.knot(i), g.knot(i + 1)
    s = a + frac * (b - a)
    if s < b:  # stay inside the half-open interval
        assert g.beta(s) == a


def test_epca_specialization_brute_force():
    g = make_uniform_grid(1.0, 0.0, (0.0, 100.0))
    ts = np.random.default_rng(0).uniform(0.0, 100.0, 10_000)
    assert np.array_equal(g.beta(ts), np.floor(ts))


def test_periodic_extension_shift():
    g = make_periodic_grid([0.0, 0.3], 1.0, (0.0, 9.0))
    p, obar = g.periodic
    assert (p, obar) == (2, 1.0)
    for t in np.random.default_rng(2).uniform(0.0, 7.5, 100):
        assert g.beta(t + obar) == pytest.approx(g.beta(t) + obar, abs=1e-12)


def test_periodic_knot_relation():
    g = make_periodic_grid([0.0, 0.3], 1.0, (0.0, 9.0))
    p, obar = g.periodic
    k = g.knots
    assert np.allclose(k[p:] - k[:-p], obar, atol=1e-12)


def test_gap_bound_periodic_pattern():
    g = make_periodic_grid([0.0, 0.3], 1.0, (0.0, 9.0))
    assert g.gap_bound == pytest.approx(0.7)


def test_extended_uniform_and_explicit():
    g = make_uniform_grid(1.0, 0.0, (0.0, 5.0))
    g2 = g.extended((-10.0, 20.0))
    assert g2.beta(-7.5) == -8.0
    ge = make_explicit_grid([0.0, 0.3, 1.0, 1.4])
    with pytest.raises(OutOfWindowError):
        ge.extended((-1.0, 2.0))


def test_non_finite_time_is_no_knot():
    g = make_uniform_grid(1.0, 0.0, (0.0, 5.0))
    for t in (math.inf, -math.inf, math.nan):
        assert g.nearest_knot_index(t) is None
    assert g.nearest_knot_index(3.0) == 3


def test_explicit_grid_leaves_caller_array_writable():
    knots = np.array([0.0, 0.3, 1.0, 1.4])
    g = make_explicit_grid(knots)
    assert knots.flags.writeable
    knots[0] = -1.0
    assert g.knots[0] == 0.0
    assert not g.knots.flags.writeable


def test_direct_grid_leaves_caller_array_writable():
    knots = np.array([0.0, 0.5, 1.0, 1.5])
    g = ThetaGrid(window=(0.0, 1.5), gap_bound=0.5, periodic=None,
                  knots=knots)
    assert knots.flags.writeable
    knots[0] = -1.0
    assert g.knots[0] == 0.0
    assert not g.knots.flags.writeable


@pytest.mark.parametrize("make, gap", [
    (lambda lo: make_uniform_grid(0.1, 0.0, (lo, lo + 3.0)), 0.1),
    (lambda lo: make_periodic_grid((0.0, 0.3), 1.0, (lo, lo + 3.0)), 1.0 - 0.3),
    (lambda lo: make_periodic_grid((0.1, 0.25, 0.7), 1.3, (lo, lo + 3.0)), 1.3 - (0.7 - 0.1)),
], ids=["uniform", "periodic-2", "periodic-3"])
@pytest.mark.parametrize("lo", [1e4, -1e5, 1e7])
def test_grid_far_from_zero_keeps_its_gap_bound(make, gap, lo):
    # knots there are rounded to ulps of their size, more than 1e-12 of a gap
    g = make(lo)
    assert g.gap_bound == gap
    assert lo < g.beta(lo + 1.0) <= lo + 1.0


def test_uniform_grid_gap_bound_is_exactly_the_step():
    for step in (0.1, 1 / 3, 0.7, 1.0, 2.5e-3):
        for offset in (0.0, 0.25, -1.3):
            g = make_uniform_grid(step, offset, (0.0, 10.0))
            assert g.gap_bound == step and g.periodic == (1, step)
            assert g.pattern == (offset,)


def test_strictly_increasing_required():
    with pytest.raises(InvalidParameterError):
        make_explicit_grid([0.0, 0.0, 1.0])
    with pytest.raises(InvalidParameterError):
        make_periodic_grid([0.0, 0.5, 0.2], 1.0, (0.0, 3.0))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: make_uniform_grid(NAN),
    lambda: make_uniform_grid(INF),
    lambda: make_uniform_grid(1.0, NAN),
    lambda: make_uniform_grid(1.0, -INF),
    lambda: make_uniform_grid(1.0, 0.0, (0.0, INF)),
    lambda: make_uniform_grid(1.0, 0.0, (-INF, 0.0)),
    lambda: make_uniform_grid(1.0, 0.0, (0.0, NAN)),
    lambda: make_explicit_grid([0.0, 1.0, INF]),
    lambda: make_explicit_grid([-INF, 0.0, 1.0]),
    lambda: make_explicit_grid([0.0, NAN, 1.0]),
    lambda: make_periodic_grid([0.0, 0.5], NAN),
    lambda: make_periodic_grid([0.0, 0.5], INF),
    lambda: make_periodic_grid([NAN, 0.5], 1.0),
    lambda: make_periodic_grid([0.0, NAN], 1.0),
    lambda: make_periodic_grid([0.0, 0.5], 1.0, (0.0, INF)),
    lambda: make_periodic_grid([0.0, 0.5], 1.0, (NAN, 1.0)),
], ids=["uniform-step-nan", "uniform-step-inf", "uniform-offset-nan", "uniform-offset-inf",
        "uniform-window-inf", "uniform-window-minus-inf", "uniform-window-nan",
        "explicit-last-inf", "explicit-first-minus-inf", "explicit-nan",
        "periodic-period-nan", "periodic-period-inf", "periodic-pattern-nan-first",
        "periodic-pattern-nan-last", "periodic-window-inf", "periodic-window-nan"])
def test_non_finite_parameters_rejected(make):
    with pytest.raises(InvalidParameterError, match="must be finite"):
        make()


@pytest.mark.parametrize("make", [
    lambda: make_uniform_grid(1.0, 0.0, (0.0, 1e300)),
    lambda: make_uniform_grid(1e-300, 0.0, (0.0, 1e300)),
    lambda: make_uniform_grid(1.0, 0.0, (0.0, 1e7)),
    lambda: make_periodic_grid([0.0, 0.5], 1.0, (0.0, 1e300)),
    lambda: make_periodic_grid([0.0, 0.5], 1.0, (-2.5e6, 2.5e6)),
], ids=["uniform-1e300", "uniform-span-overflows", "uniform-just-over",
        "periodic-1e300", "periodic-just-over"])
def test_window_with_too_many_knots_is_refused_before_allocating(make):
    with pytest.raises(InvalidParameterError, match=r"knots, more than 10\*\*7"):
        make()


def test_long_window_below_the_knot_bound_is_built():
    g = make_periodic_grid([0.0, 0.25, 0.5], 1.0, (-1e4, 1e4))
    assert len(g.knots) == 3 * 20003
    assert g.knots[0] == -10001.0 and g.knots[-1] == 10001.5
