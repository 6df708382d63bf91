import numpy as np
import pytest

from epcag_lab.errors import ConfigError, EvaluationError, ExpressionError, InvalidParameterError
from epcag_lab.grid import make_uniform_grid
from epcag_lab.linear import fundamental_matrix
from epcag_lab.system import (
    SystemSpec,
    estimate_lipschitz,
    estimate_mu,
    get_problem,
    parse_system,
)

EX1_CONFIG = """
[system]
n = 1
A11 = 2
f1 = -w1^2

[grid]
kind = uniform
step = 1.0
offset = 0.0
window = 0 10

[constants]
mu = 2.0
lip = 5.0
h0 = 0.0
"""


def test_parse_full_rhs_expression():
    cfg = EX1_CONFIG.replace("f1 = -w1^2", "f1 = 2*y1 - w1^2")
    spec = parse_system(cfg)
    # full right-hand side expression: 2y - w^2
    rng = np.random.default_rng(0)
    for _ in range(20):
        y, w = rng.uniform(-2, 2, 2)
        assert spec.eval_f(0.5, [y], [w])[0] == pytest.approx(2 * y - w ** 2, rel=1e-12)


def test_parse_zero_nonlinearity():
    cfg = EX1_CONFIG.replace("f1 = -w1^2", "f1 = 0")
    spec = parse_system(cfg)
    assert spec.eval_f(0.0, [0.0], [0.0])[0] == 0.0


def test_parse_syntax_error_carries_position():
    cfg = EX1_CONFIG.replace("f1 = -w1^2", "f1 = 2**y1")
    with pytest.raises(ExpressionError) as exc:
        parse_system(cfg)
    assert exc.value.line == 5  # the f1 line in the config text
    assert exc.value.column is not None


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        parse_system(EX1_CONFIG + "\n[system2]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_system(EX1_CONFIG.replace("mu = 2.0", "bogus = 2.0"))


def test_entry_out_of_range_and_missing():
    with pytest.raises(ConfigError):
        parse_system(EX1_CONFIG + "A13 = 1\n")
    with pytest.raises(ConfigError):
        parse_system(EX1_CONFIG.replace("f1 = -w1^2", "f2 = 0"))


def _diagonal_config(n, entry):
    lines = ["[system]", f"n = {n}"]
    lines += [f"{entry(k, k)} = {-0.1 * k}" for k in range(1, n + 1)]
    lines += [f"f{k} = 0" for k in range(1, n + 1)]
    lines += ["[grid]", "step = 1.0", "window = -5 5",
              "[constants]", "mu = 1.6", "lip = 0"]
    return "\n".join(lines) + "\n"


def test_separated_matrix_entries_for_n_16():
    spec = parse_system(_diagonal_config(16, lambda r, c: f"A{r}_{c}"))
    diag = -0.1 * np.arange(1, 17)
    assert spec.n == 16
    assert np.array_equal(spec.a_constant, np.diag(diag))
    for t, s in [(1.5, -0.5), (-2.0, 0.7)]:
        X = fundamental_matrix(spec, t, s)
        assert np.allclose(X, np.diag(np.exp(diag * (t - s))), rtol=1e-9, atol=0)


def test_separated_and_packed_entries_agree():
    packed = parse_system(_diagonal_config(3, lambda r, c: f"A{r}{c}"))
    separated = parse_system(_diagonal_config(3, lambda r, c: f"A{r}_{c}"))
    assert np.array_equal(packed.a_constant, separated.a_constant)


@pytest.mark.parametrize("key", ["A1_", "A_1", "A1__1", "A1010", "A111", "A1", "f1_"])
def test_malformed_entry_keys_rejected(key):
    with pytest.raises(ConfigError):
        parse_system(EX1_CONFIG.replace("A11 = 2", f"A11 = 2\n{key} = 1"))


def test_matrix_entry_given_twice_rejected():
    with pytest.raises(ConfigError, match="twice"):
        parse_system(EX1_CONFIG.replace("A11 = 2", "A11 = 2\nA1_1 = 3"))


@pytest.mark.parametrize("old,new,message", [
    ("f1 = -w1^2", "f1 = 0\nf1 = 1", "line 6: key 'f1' given twice in [system]"),
    ("mu = 2.0", "mu = 1.0\nmu = 3.0", "line 15: key 'mu' given twice in [constants]"),
    ("h0 = 0.0", "h0 = 0.0\n[system]\nn = 1", "line 18: key 'n' given twice in [system]"),
])
def test_key_given_twice_rejected(old, new, message):
    with pytest.raises(ConfigError) as err:
        parse_system(EX1_CONFIG.replace(old, new))
    assert str(err.value) == message


def test_registry_shortcut():
    spec = parse_system("[system]\nproblem = paper-example-1\n")
    assert spec.name == "paper-example-1"
    assert spec.n == 1


def test_grid_sections():
    cfg = EX1_CONFIG.replace(
        "kind = uniform\nstep = 1.0\noffset = 0.0\nwindow = 0 10",
        "kind = explicit\nknots = 0 0.3 1.0 1.4",
    )
    spec = parse_system(cfg)
    assert spec.grid.beta(0.9) == 0.3
    cfg = EX1_CONFIG.replace(
        "kind = uniform\nstep = 1.0\noffset = 0.0\nwindow = 0 10",
        "kind = periodic-pattern\npattern = 0 0.3\nperiod = 1.0\nwindow = 0 8",
    )
    spec = parse_system(cfg)
    assert spec.grid.periodic == (2, 1.0)


def test_eval_f_paper_example():
    spec = get_problem("paper-example-1")
    assert spec.eval_f(0.0, [3.0], [2.0])[0] == -4.0
    # full right-hand side reproduces 2x - x([t])^2 at sampled points
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, xb = rng.uniform(-2, 2, 2)
        rhs = spec.eval_A(0.0)[0, 0] * x + spec.eval_f(0.0, [x], [xb])[0]
        assert rhs == pytest.approx(2 * x - xb ** 2, rel=1e-14)


def test_eval_f_sin_at_zero():
    spec = get_problem("diag-dichotomy", coupling=0.1)
    assert np.all(spec.eval_f(0.0, [0.5, 0.5], [0.0, 0.0]) == 0.0)


def test_estimate_lipschitz_linear():
    cfg = EX1_CONFIG.replace("f1 = -w1^2", "f1 = 0.1*w1")
    spec = parse_system(cfg)
    est = estimate_lipschitz(spec, box=1.0, samples=100)
    assert 0.1 - 1e-6 <= est <= 0.1 + 1e-12


def test_estimate_lipschitz_zero():
    cfg = EX1_CONFIG.replace("f1 = -w1^2", "f1 = 0")
    spec = parse_system(cfg)
    assert estimate_lipschitz(spec, box=1.0, samples=50) == 0.0


def test_estimate_lipschitz_quadratic_near_two():
    spec = get_problem("paper-example-1")
    est = estimate_lipschitz(spec, box=1.0, samples=200)
    assert 1.99 <= est <= 2.0 + 1e-9


def test_estimate_lipschitz_monotone_in_box():
    spec = get_problem("paper-example-1")
    prev = 0.0
    for box in (0.25, 0.5, 1.0, 2.0):
        est = estimate_lipschitz(spec, box=box, samples=100)
        assert est >= prev - 1e-12
        prev = est


def test_estimate_lipschitz_degenerate_box():
    spec = get_problem("paper-example-1")
    with pytest.raises(InvalidParameterError):
        estimate_lipschitz(spec, box=0.0)
    with pytest.raises(InvalidParameterError):
        estimate_lipschitz(spec, box=1.0, samples=1)


# Reference: the one-pair-at-a-time estimators the batched ones replace, kept
# verbatim but for the argument checks.

def loop_estimate_mu(spec):
    lo, hi = spec.grid.window
    ts = np.linspace(lo, hi, 200)
    return float(max(np.linalg.norm(spec.eval_A(t), 2) for t in ts))


def loop_estimate_lipschitz(spec, box, samples=200):
    n = spec.n
    rng = np.random.default_rng(0)
    lo, hi = spec.grid.window
    ts = np.linspace(lo, hi, 7)

    pairs = []  # (y1, w1, y2, w2)
    scales = [1.0, 0.5, 0.25, 0.125]
    for s in scales:
        r = s * box
        for k in range(n):
            e = np.zeros(n)
            e[k] = r
            z = np.zeros(n)
            for delta in (2.0 * r, 1e-3 * r):
                d = np.zeros(n)
                d[k] = delta
                pairs.append((e, z, e - d, z))
                pairs.append((z, e, z, e - d))
                pairs.append((-e, z, -e + d, z))
                pairs.append((z, -e, z, -e + d))
        m = max(1, samples // (4 * len(scales)))
        for _ in range(m):
            y1, w1, y2, w2 = (rng.uniform(-r, r, size=n) for _ in range(4))
            pairs.append((y1, w1, y2, w2))
            d = rng.uniform(-1e-3 * r, 1e-3 * r, size=n)
            pairs.append((y1, w1, y1 + d, w1))

    best = 0.0
    for t in ts:
        for y1, w1, y2, w2 in pairs:
            den = np.linalg.norm(y1 - y2) + np.linalg.norm(w1 - w2)
            if den == 0:
                continue
            num = np.linalg.norm(spec.eval_f(t, y1, w1) - spec.eval_f(t, y2, w2))
            best = max(best, num / den)
    return float(best)


N2_CONFIG = """
[system]
n = 2
A11 = -1 + 0.3*sin(t)
A12 = 0.2*cos(2*t)
A21 = 0.1*t
A22 = 0.5
f1 = 0.1*sin(w1*y2) + 0.05*y1^2*cos(t)
f2 = 0.2*w2*w1 - 0.1*exp(0.3*y2)

[grid]
kind = uniform
step = 1.0
offset = 0.0
window = -3 4

[constants]
mu = 2.0
lip = 1.0
"""


def api_spec():
    """A system from the API: A(t) and f are plain Python functions."""
    def A(t):
        return np.array([[-1.0, 0.4 * np.sin(t)], [0.1, 0.7 + 0.2 * np.cos(t)]])

    def f(t, y, w):
        y, w = np.asarray(y), np.asarray(w)
        return np.stack([0.3 * np.tanh(y[..., 1] * w[..., 0]) + 0.01 * t * y[..., 0],
                         0.2 * np.sin(w[..., 1]) * np.cos(y[..., 0])], axis=-1)

    return SystemSpec(n=2, A=A, f=f, grid=make_uniform_grid(1.0, window=(-2.0, 5.0)),
                      mu=1.0, lip=1.0)


@pytest.mark.parametrize("make", [lambda: parse_system(N2_CONFIG), api_spec,
                                  lambda: get_problem("paper-example-1")],
                         ids=["config", "api", "registry"])
@pytest.mark.parametrize("box,samples", [(1.0, 200), (0.5, 40)])
def test_batched_estimators_match_pair_loop(make, box, samples):
    spec = make()
    assert estimate_lipschitz(spec, box, samples) == pytest.approx(
        loop_estimate_lipschitz(spec, box, samples), rel=1e-12)
    assert estimate_mu(spec) == pytest.approx(loop_estimate_mu(spec), rel=1e-12)


def test_batched_estimators_call_f_once_per_time_and_A_once(monkeypatch):
    spec = api_spec()
    calls = {"f": 0, "A": 0}

    def f(t, y, w):
        calls["f"] += 1
        return spec.f(t, y, w)

    eval_A = SystemSpec.eval_A

    def counting_eval_A(self, t):
        calls["A"] += 1
        return eval_A(self, t)

    monkeypatch.setattr(SystemSpec, "eval_A", counting_eval_A)
    counted = SystemSpec(n=2, A=spec.A, f=f, grid=spec.grid, mu=1.0, lip=1.0)
    estimate_lipschitz(counted, box=1.0)
    estimate_mu(counted)
    assert calls == {"f": 7, "A": 1}


def test_estimate_lipschitz_domain_error_names_its_position():
    cfg = EX1_CONFIG.replace("f1 = -w1^2", "f1 = 0.01/w1").replace("lip = 5.0", "lip = estimate")
    with pytest.raises(EvaluationError, match="division by zero at line 5"):
        parse_system(cfg)


def test_estimate_mu():
    spec = get_problem("paper-example-1")
    assert estimate_mu(spec) == pytest.approx(2.0)


def test_constants_estimation_label():
    cfg = EX1_CONFIG.replace("mu = 2.0", "mu = estimate").replace("lip = 5.0", "lip = estimate")
    spec = parse_system(cfg)
    assert spec.mu_estimated and spec.lip_estimated
    assert spec.mu == pytest.approx(2.0)
    assert spec.estimated_constants == ["mu", "lip"]


def test_unknown_problem():
    with pytest.raises(InvalidParameterError):
        get_problem("not-a-problem")


def test_vectorized_f_contract():
    for name, kw in [("paper-example-1", {}), ("diag-dichotomy", dict(coupling=0.1)),
                     ("forced-scalar", dict(feedback=0.1)), ("periodic-coupled", {})]:
        spec = get_problem(name, **kw)
        n = spec.n
        y = np.random.default_rng(3).uniform(-1, 1, (7, n))
        w = np.random.default_rng(4).uniform(-1, 1, (7, n))
        batched = spec.eval_f(0.3, y, w)
        assert batched.shape == (7, n)
        for j in range(7):
            assert np.allclose(batched[j], spec.eval_f(0.3, y[j], w[j]))
        ts = np.linspace(0.0, 1.0, 7)
        batched_t = spec.eval_f(ts, y, w)
        for j in range(7):
            assert np.allclose(batched_t[j], spec.eval_f(ts[j], y[j], w[j]))


# the n = 2 systems of the backward benchmark: f1 reads y and w, and the
# second f1 divides by w1, which is 0 on the multi-start lattice
BENCH_N2_CONFIG = """
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
BENCH_N2_F1 = ["0.02*sin(w2) + 0.01*y2*cos(t)", "0.01/(1 + w1^2) + 0.001*y1/w1",
         "-exp(-w1)*log(1 + w2^2) + pi*y1^2 - abs(w2)^pi + (2^3 - 1/4)*t"]


def _f_outcome(f, *args):
    try:
        with np.errstate(all="ignore"):
            return f(*args)
    except EvaluationError as exc:
        return str(exc)


@pytest.mark.parametrize("f1", BENCH_N2_F1)
def test_config_f_fold_matches_f_bit_for_bit(f1):
    f = parse_system(BENCH_N2_CONFIG.format(f1=f1)).f
    rng = np.random.default_rng(6)
    y, w = rng.uniform(-2.0, 2.0, (2, 11, 2))
    w[3, 0] = 0.0  # a domain error of the second f1
    for t in (0.0, 0.4, np.float64(0.9)):
        want = f(t, y, w)
        got = f.fold(w)(t, y)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for q in range(len(y)):
            want_q = _f_outcome(f, t, y[q], w[q])
            got_q = _f_outcome(f.fold(w[q]), t, y[q])
            if isinstance(want_q, str):
                assert got_q == want_q
            else:
                assert got_q.shape == (2,) and got_q.tobytes() == want_q.tobytes()


def test_config_f_fold_keeps_the_domain_error_of_one_state():
    f = parse_system(BENCH_N2_CONFIG.format(f1="0.01/(1 + w1^2) + 0.001*y1/w1")).f
    # a batch: the row with w1 = 0 is NaN, the other is finite
    out = f.fold(np.array([[0.0, 0.3], [0.5, 0.1]]))(0.5, np.array([[0.2, 0.1], [0.2, 0.1]]))
    assert np.isnan(out[0, 0]) and np.isfinite(out[0, 1]) and np.isfinite(out[1]).all()
    # one state: the same message, naming the same line and column
    folded = f.fold(np.array([0.0, 0.3]))
    with pytest.raises(EvaluationError) as exc:
        folded(0.5, np.array([0.2, 0.1]))
    with pytest.raises(EvaluationError) as want:
        f(0.5, np.array([0.2, 0.1]), np.array([0.0, 0.3]))
    assert str(exc.value) == str(want.value) == "division by zero at line 8, column 32"
