import numpy as np
import pytest

from epcag_lab.errors import EvaluationError, ExpressionError
from epcag_lab.expressions import parse_expression

VARS = ["t", "y1", "y2", "w1", "w2"]

CORPUS = [
    "2*y1 - w1^2",
    "sin(t) + cos(w2)",
    "exp(-t)*y2 + 0.5",
    "y1/(1 + w1^2)",
    "-y1^2 + abs(w2)",
    "pi*t - 2^y1",
    "1e-3*t + 2.5E2",
    "(y1 + y2)*(w1 - w2)",
    "log(1 + y1^2)",
    "-(-y2)",
    "2^3^2",
]


def _sympy_eval(src, env):
    import sympy as sp
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    syms = {name: sp.Symbol(name) for name in VARS}
    expr = parse_expr(src, local_dict={**syms, "abs": sp.Abs},
                      transformations=standard_transformations + (convert_xor,))
    return float(expr.subs({syms[k]: v for k, v in env.items()}))


@pytest.mark.parametrize("src", CORPUS)
def test_eval_matches_independent_evaluator(src):
    tree = parse_expression(src, VARS)
    rng = np.random.default_rng(hash(src) % 2 ** 31)
    n_checked = 0
    while n_checked < 90:
        env = {k: float(v) for k, v in zip(VARS, rng.uniform(0.1, 2.0, len(VARS)))}
        mine = float(tree.eval(env))
        ref = _sympy_eval(src, env)
        assert mine == pytest.approx(ref, rel=1e-12)
        n_checked += 1


def test_double_star_is_a_syntax_error_at_second_star():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("2**y1", VARS)
    assert exc.value.column == 3  # the second '*'


def test_unknown_identifier():
    with pytest.raises(ExpressionError) as exc:
        parse_expression("2*q1", VARS)
    assert "q1" in str(exc.value)


def test_unknown_function():
    with pytest.raises(ExpressionError):
        parse_expression("tan(y1)", VARS)


def test_unbalanced_parens():
    with pytest.raises(ExpressionError):
        parse_expression("(y1 + 2", VARS)


def test_power_right_associative_and_unary_minus():
    tree = parse_expression("2^3^2", VARS)
    assert tree.eval({}) == 512.0
    tree = parse_expression("-2^2", VARS)
    assert tree.eval({}) == -4.0


def test_division_by_zero_reports_location():
    tree = parse_expression("y1/(w1 - w1)", VARS)
    with pytest.raises(EvaluationError) as exc:
        tree.eval({"y1": 1.0, "w1": 2.0})
    assert "column" in str(exc.value)


def test_log_domain_error():
    tree = parse_expression("log(y1)", VARS)
    with pytest.raises(EvaluationError):
        tree.eval({"y1": -1.0})


def test_invalid_power_of_scalars_raises():
    tree = parse_expression("y1^0.5", VARS)
    with pytest.raises(EvaluationError) as exc:
        tree.eval({"y1": -4.0})
    assert "column" in str(exc.value)


@pytest.mark.parametrize("src,bad", [
    ("1/w1", [0.0]), ("log(w1)", [0.0, -1.0]), ("w1^0.5", [-1.0]),
    ("t/(w1 - t)", [1.0]),
])
def test_domain_error_of_array_operand_is_nan_per_element(src, bad):
    tree = parse_expression(src, VARS)
    w = np.array([-1.0, 0.0, 1.0, 4.0])
    with np.errstate(all="raise"):
        out = tree.eval({"w1": w, "t": 1.0})
    is_bad = np.isin(w, bad)
    assert np.isnan(out[is_bad]).all() and np.isfinite(out[~is_bad]).all()
    for wk, ok in zip(w[~is_bad], out[~is_bad]):
        assert ok == tree.eval({"w1": wk, "t": 1.0})


def test_broadcast_evaluation():
    tree = parse_expression("y1^2 + t", VARS)
    y = np.array([1.0, 2.0, 3.0])
    t = np.array([0.0, 1.0, 2.0])
    assert np.allclose(tree.eval({"y1": y, "t": t}), y ** 2 + t)


def test_free_variable_tracking_and_determinism():
    tree = parse_expression("sin(w2) + 1", VARS)
    assert tree.variables == {"w2"}
    env = {"w2": 0.7}
    assert tree.eval(env) == tree.eval(env)
    with pytest.raises(EvaluationError):
        tree.eval({})
