import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _same(a, b):
    """Equal shape, dtype and bytes (NaN payloads included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _outcome(evaluate):
    """The value of ``evaluate()``, or the message of its EvaluationError."""
    try:
        with np.errstate(all="ignore"):
            return evaluate()
    except EvaluationError as exc:
        return str(exc)


def _assert_fold_matches(tree, t, y, w):
    """The tree folded over w, then evaluated at (t, y), gives what it
    gives evaluated at (t, y, w) at once: the same bits or the same error."""
    w_env = {"w1": w[..., 0], "w2": w[..., 1]}
    y_env = {"t": t, "y1": y[..., 0], "y2": y[..., 1]}
    folded = tree.partial(w_env)
    assert not folded.variables & {"w1", "w2"}
    want = _outcome(lambda: tree.eval({**y_env, **w_env}))
    got = _outcome(lambda: folded.eval(y_env))
    if isinstance(want, str):
        assert got == want
    else:
        assert _same(got, want)
    return want


FOLD_CASES = [
    "0.02*sin(w2) + 0.01*y2*cos(t)",          # perfbench n = 2 f1
    "0.01/(1 + w1^2) + 0.001*y1/w1",          # perfbench domain-error f1
    "0.01*cos(w1) - 0.01*sin(y1)",            # perfbench n = 2 f2
    "-exp(-w1)*log(1 + w2^2) + pi*y1^2 - abs(w2)^pi + -(-t)",
    "(2^3 - 1/4)*y1 + (pi - 1)*w1",           # constants-only subtrees
    "sin(w1)",
    "3.5",
]


@pytest.mark.parametrize("src", FOLD_CASES)
def test_partial_over_w_matches_full_evaluation_bit_for_bit(src):
    tree = parse_expression(src, VARS)
    rng = np.random.default_rng(11)
    y, w = rng.uniform(-2, 2, (2, 9, 2))
    for t in (0.7, np.float64(-1.3)):
        _assert_fold_matches(tree, t, y, w)                 # batched (m, n)
        for q in range(3):
            _assert_fold_matches(tree, t, y[q], w[q])       # one state (n,)


def test_partial_folds_constants_only_subtrees():
    tree = parse_expression("(2^3 - 1/4)*y1 + pi*2", VARS)
    folded = tree.partial({})
    assert folded.variables == {"y1"}
    left, right = folded.root[3], folded.root[4]
    assert left[3][0] == "num" and left[3][1] == 2.0 ** 3 - 1.0 / 4.0
    assert right[0] == "num" and right[1] == np.pi * 2
    for y1 in (0.3, np.linspace(-1, 1, 5)):
        assert _same(folded.eval({"y1": y1}), tree.eval({"y1": y1}))


def test_partial_leaves_names_outside_env():
    tree = parse_expression("sin(w1)*y1 + t*w2", VARS)
    assert tree.partial({"w1": 0.5}).variables == {"y1", "t", "w2"}
    assert tree.partial({"w1": 0.5, "w2": 1.0}).variables == {"y1", "t"}
    assert tree.variables == {"w1", "w2", "y1", "t"}


@pytest.mark.parametrize("src, bad", [
    ("y1 + log(w1)", [True, True, False]),
    ("y1*(1/w1)", [True, False, False]),
    ("y2 - w1^0.5", [False, True, False]),
    ("log(1/w1) + y1", [True, True, False]),
])
def test_domain_error_inside_a_w_subtree_is_kept(src, bad):
    tree = parse_expression(src, VARS)
    # a batch: the bad rows are NaN on both paths, the others bit for bit
    w = np.array([[0.0, 1.0], [-1.0, 2.0], [4.0, 0.5]])
    y = np.full((3, 2), 0.25)
    got = _assert_fold_matches(tree, 0.5, y, w)
    assert np.array_equal(np.isnan(got), bad)
    # one state: the fold raises nothing and evaluation raises the same error
    for wq in w[bad]:
        message = _assert_fold_matches(tree, 0.5, y[0], wq)
        assert isinstance(message, str) and "column" in message


def test_y_subtree_left_of_a_raising_w_subtree_raises_first():
    tree = parse_expression("log(y1) + 1/w1", VARS)
    folded = tree.partial({"w1": 0.0})
    with pytest.raises(EvaluationError, match="log of non-positive value at line 1, column 1"):
        folded.eval({"y1": -1.0})
    with pytest.raises(EvaluationError, match="division by zero at line 1, column 12"):
        folded.eval({"y1": 1.0})
    for y1 in (-1.0, 1.0):
        assert _outcome(lambda: folded.eval({"y1": y1})) == _outcome(
            lambda: tree.eval({"y1": y1, "w1": 0.0}))


# random expressions over t, y1 and w1, with every operation and function
_LEAVES = st.one_of(
    st.sampled_from(["t", "y1", "w1", "pi"]),
    st.floats(0.0, 4.0, allow_nan=False).map(lambda x: f"{x:.3g}"),
)


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda a: f"({a[0]} {a[1]} {a[2]})"),
        inner.map(lambda a: f"-{a}"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "abs"]), inner).map(
            lambda a: f"{a[0]}({a[1]})"),
    )


@settings(max_examples=200, deadline=None)
@given(src=st.recursive(_LEAVES, _extend, max_leaves=12),
       t=st.floats(-2.0, 2.0), y1=st.floats(-2.0, 2.0), w1=st.floats(-2.0, 2.0))
def test_partial_over_w1_matches_full_evaluation_on_random_expressions(src, t, y1, w1):
    tree = parse_expression(src, ["t", "y1", "w1"])
    ys = np.array([y1, 0.0, -y1, 1.5])
    ws = np.array([w1, 0.0, 1.0, -w1])
    for y, w in ((y1, w1), (ys, ws), (y1, ws), (ys, w1)):
        with np.errstate(all="ignore"):
            folded = tree.partial({"w1": w})
        assert "w1" not in folded.variables
        want = _outcome(lambda: tree.eval({"t": t, "y1": y, "w1": w}))
        got = _outcome(lambda: folded.eval({"t": t, "y1": y}))
        if isinstance(want, str):
            assert got == want
        else:
            assert _same(got, want)
