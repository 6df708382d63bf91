"""System definitions: coefficient matrix, nonlinearity, constants, registry.

A ``SystemSpec`` packages the right-hand side of

    y' = A(t) y + f(t, y(t), y(beta(t)))

together with its grid and the constants used by the inequality checkers:
mu bounds sup||A(t)||, ``lip`` is a Lipschitz constant of f in the last two
arguments, ``h0`` bounds ||f(t,0,0)|| and ``period`` is the common period
of A and f when they are periodic in t.

Evaluators broadcast: ``f(t, y, w)`` accepts ``y``/``w`` of shape (n,) or
(m, n) with scalar or (m,)-shaped t and returns the matching shape.  A(t)
takes scalar t and returns an (n, n) matrix.  When f does not read y
(``f_ignores_y``), f must also broadcast a (T, 1)-shaped t against (m, n)
arguments (a (T,)-shaped t against (n,) ones) to give (T, m, n) (or
(T, n)): the solver samples it at every RK4 stage time in one call.

A config file's f also has a fold hook, ``f.fold``: ``f.fold(w)`` is the
function (t, y) -> f(t, y, w) with every subexpression that reads only w
(or constants) evaluated once, when it is made.  The solver's step loop
uses it, since w is frozen between two knots; its values and domain
errors are those of f.  An f without the hook is called whole.
"""

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EvaluationError, InvalidParameterError
from .expressions import parse_expression, raise_at_first_nonfinite
from .grid import ThetaGrid, make_explicit_grid, make_periodic_grid, make_uniform_grid
from .integrate import sample_A

__all__ = [
    "SystemSpec",
    "parse_system",
    "parse_config",
    "estimate_lipschitz",
    "estimate_mu",
    "get_problem",
    "REGISTRY_NAMES",
]


@dataclass(frozen=True)
class SystemSpec:
    """Immutable system definition; evaluators are reentrant."""

    n: int
    A: object  # callable t -> (n, n)
    f: object  # callable (t, y, w) -> like y
    grid: ThetaGrid
    mu: float
    lip: float
    h0: float | None = None
    period: float | None = None
    name: str = "custom"
    mu_estimated: bool = False
    lip_estimated: bool = False
    # When set, a_constant must equal A(t) for every t: the solver then uses
    # it in place of A (one transpose per run, no eval_A call per stage), and
    # fundamental_matrix and reduce pass it (or its blocks) on as the array
    # coefficient that integrate.propagator takes in closed form.
    a_constant: np.ndarray | None = None
    # When set, f(t, y, w) must not depend on y: between two knots the
    # equation is then affine in y with the forcing f(t, w), and the solver
    # integrates it in closed form (integrate.Affine) instead of stepping.
    f_ignores_y: bool = False

    def eval_A(self, t):
        """A(t) as (n, n); for a 1-D array of T times, (T, n, n)."""
        if np.ndim(t) == 0:
            return np.asarray(self.A(t), dtype=float).reshape(self.n, self.n)
        return sample_A(self.A, t).reshape(-1, self.n, self.n)

    eval_A.takes_time_arrays = True

    def eval_f(self, t, y, w):
        y = np.asarray(y, dtype=float)
        w = np.asarray(w, dtype=float)
        out = np.asarray(self.f(t, y, w), dtype=float)
        if out.shape != y.shape:
            out = np.broadcast_to(out, np.broadcast_shapes(out.shape, y.shape)).copy()
        return out

    def with_window(self, window):
        """Same system over an enlarged working window."""
        return replace(self, grid=self.grid.extended(window))

    @property
    def estimated_constants(self):
        tags = []
        if self.mu_estimated:
            tags.append("mu")
        if self.lip_estimated:
            tags.append("lip")
        return tags


def state_vector(x, n, name):
    """``x`` as a float vector of exactly n finite entries.

    Any array shape holding n elements is accepted; a wrong size or a
    non-finite entry raises InvalidParameterError.
    """
    x = np.asarray(x, dtype=float)
    if x.size != n:
        raise InvalidParameterError(f"{name} needs {n} entries, got {x.size}")
    x = x.reshape(n)
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError(f"{name} must be finite, got {x}")
    return x


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(r"^\[([a-zA-Z0-9_-]+)\]\s*$")
_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")

# run settings; [run] and [tolerances] each take any of them
_RUN_KEY_TYPES = {
    "seed": int, "out": str,
    "root_tol": float, "picard_tol": float, "steady_tol": float,
    "substeps": int,
}

_KNOWN_KEYS = {
    "system": {"problem", "n"},  # plus A.. / f.. entries, validated separately
    "grid": {"kind", "step", "offset", "window", "knots", "pattern", "period"},
    "constants": {"mu", "lip", "h0", "period"},
    "run": set(_RUN_KEY_TYPES),
    "tolerances": set(_RUN_KEY_TYPES),
}

_ENTRY_RE = re.compile(r"^(A|f)([0-9_]+)$")
# A<row><col> with one digit each, or A<row>_<col> for any size
_MATRIX_INDEX_RE = re.compile(r"^(?:([0-9])([0-9])|([0-9]+)_([0-9]+))$")


def _read_sections(text):
    """INI-ish reader that keeps line numbers and value columns."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        m = _SECTION_RE.match(line.strip())
        if m:
            current = m.group(1)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        m = _KEY_RE.match(line.strip())
        if not m:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = m.group(1), m.group(2).strip()
        if any(k == key for k, *_ in sections[current]):
            raise ConfigError(f"line {lineno}: key {key!r} given twice in [{current}]")
        value_col = raw.index("=") + 2 + (len(raw.split("=", 1)[1]) - len(raw.split("=", 1)[1].lstrip()))
        sections[current].append((key, value, lineno, value_col))
    return sections


def _floats(value, lineno, what, count=None):
    try:
        vals = [float(x) for x in value.split()]
    except ValueError:
        raise ConfigError(f"line {lineno}: {what} must be numeric") from None
    if count is not None and len(vals) != count:
        raise ConfigError(f"line {lineno}: {what} needs {count} values")
    return vals


def _parse_grid(items):
    kv = {k: (v, ln) for k, v, ln, _ in items}
    for k, _, ln, _ in items:
        if k not in _KNOWN_KEYS["grid"]:
            raise ConfigError(f"line {ln}: unknown grid key {k!r}")
    kind = kv.get("kind", ("uniform", 0))[0]
    if kind == "uniform":
        step = _floats(kv["step"][0], kv["step"][1], "step", 1)[0] if "step" in kv else 1.0
        offset = _floats(kv["offset"][0], kv["offset"][1], "offset", 1)[0] if "offset" in kv else 0.0
        window = _floats(kv["window"][0], kv["window"][1], "window", 2) if "window" in kv else [0.0, 10.0]
        return make_uniform_grid(step, offset, tuple(window))
    if kind == "explicit":
        if "knots" not in kv:
            raise ConfigError("explicit grid requires a 'knots' list")
        return make_explicit_grid(_floats(kv["knots"][0], kv["knots"][1], "knots"))
    if kind == "periodic-pattern":
        if "pattern" not in kv or "period" not in kv:
            raise ConfigError("periodic-pattern grid requires 'pattern' and 'period'")
        pattern = _floats(kv["pattern"][0], kv["pattern"][1], "pattern")
        period = _floats(kv["period"][0], kv["period"][1], "period", 1)[0]
        window = _floats(kv["window"][0], kv["window"][1], "window", 2) if "window" in kv else [0.0, 10.0]
        return make_periodic_grid(pattern, period, tuple(window))
    raise ConfigError(f"unknown grid kind {kind!r}")


def _build_matrix_eval(entries, n):
    """A(t) evaluator from a dict (row, col) -> ExpressionTree.

    A time-varying evaluator takes a scalar t, giving (n, n), or a 1-D
    array of times, giving (T, n, n) from one walk of each tree.  A domain
    error at any of the times raises, as it does for a scalar t.
    """
    const = all(not e.variables for e in entries.values())
    if const:
        mat = np.zeros((n, n))
        for (r, c), tree in entries.items():
            mat[r, c] = float(tree.eval({}))
        return (lambda t, _m=mat: _m), mat

    def A(t):
        t = np.asarray(t, dtype=float)
        mat = np.zeros(t.shape + (n, n))
        for (r, c), tree in entries.items():
            mat[..., r, c] = tree.eval({"t": t})
        return raise_at_first_nonfinite(A, mat, t) if t.ndim else mat

    A.takes_time_arrays = True
    return A, None


def _build_f_eval(trees, n):
    """f(t, y, w) evaluator from per-component ExpressionTrees.

    Its ``fold`` attribute is the fold hook w -> (t, y -> f(t, y, w)): the
    function it returns evaluates the subtrees of each tree that read only
    w (or nothing) once, when it is made, and the rest at each call, with
    the same bits and the same domain errors as f.
    """

    def evaluate(components, t, y, env):
        y = np.asarray(y, dtype=float)
        env["t"] = np.asarray(t, dtype=float)
        for k in range(n):
            env[f"y{k + 1}"] = y[..., k]
        out = np.empty(np.broadcast(env["t"], y[..., 0]).shape + (n,))
        for k, tree in enumerate(components):
            out[..., k] = tree.eval(env)
        return out

    def frozen(w):
        w = np.asarray(w, dtype=float)
        return {f"w{k + 1}": w[..., k] for k in range(n)}

    def f(t, y, w):
        return evaluate(trees, t, y, frozen(w))

    def fold(w):
        env = frozen(w)
        folded = [tree.partial(env) for tree in trees]
        return lambda t, y: evaluate(folded, t, y, {})

    f.fold = fold
    return f


def _run_overrides(sections):
    """Typed [run]/[tolerances] values within their documented bounds."""
    overrides = {}
    for section in ("run", "tolerances"):
        for key, value, ln, _col in sections.get(section, []):
            try:
                overrides[key] = _RUN_KEY_TYPES[key](value)
            except KeyError:
                raise ConfigError(f"line {ln}: unknown {section} key {key!r}") from None
            except ValueError:
                raise ConfigError(f"line {ln}: bad value for {key!r}") from None
            check_run_value(key, overrides[key])
    return overrides


def check_run_value(key, value, name=None):
    """ConfigError unless a [run]/[tolerances] value, from config or from
    the command-line flag ``name``, is within its documented bounds."""
    if key == "seed" and value < 0:
        raise ConfigError(f"{name or key} = {value} out of documented bounds: must be >= 0")
    if key == "substeps" and not 2 <= value <= 4096:
        raise ConfigError(f"{name or key} = {value} out of documented bounds [2, 4096]")
    if key.endswith("_tol") and not 0 < value <= 1e-2:
        raise ConfigError(f"{name or key} = {value} out of documented bounds (0, 1e-2]")


def parse_config(config_text):
    """(SystemSpec, run overrides) from structured config text.

    Sections: [system] with n and entries A<r><c> (or A<r>_<c>, needed
    from n = 10 on), f<k> (expressions over
    t, y1..yn, w1..wn); [grid]; [constants] with mu, lip (numeric or the
    word ``estimate``), optional h0 and period; [run] and [tolerances]
    with seed, out, root_tol, picard_tol, steady_tol and substeps, which
    come back typed in the overrides dict.  Unknown keys are rejected.  A
    ``problem = <registry name>`` shortcut replaces the inline definition.
    """
    sections = _read_sections(config_text)
    return _system_from_sections(sections), _run_overrides(sections)


def parse_system(config_text):
    """Build a SystemSpec from structured config text (see parse_config)."""
    return parse_config(config_text)[0]


def _system_from_sections(sections):
    unknown = set(sections) - set(_KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    sysitems = sections.get("system")
    if not sysitems:
        raise ConfigError("missing [system] section")
    kv = {k: (v, ln, col) for k, v, ln, col in sysitems}

    if "problem" in kv:
        extra = [k for k in kv if k != "problem"]
        if extra:
            raise ConfigError(f"registry shortcut cannot be mixed with keys {extra}")
        return get_problem(kv["problem"][0])

    if "n" not in kv:
        raise ConfigError("[system] must declare n")
    try:
        n = int(kv["n"][0])
    except ValueError:
        raise ConfigError(f"line {kv['n'][1]}: n must be an integer") from None
    if n < 1:
        raise ConfigError("n must be >= 1")

    variables = ["t"] + [f"y{k}" for k in range(1, n + 1)] + [f"w{k}" for k in range(1, n + 1)]
    a_entries = {}
    f_trees = [None] * n
    for key, value, ln, col in sysitems:
        if key in ("problem", "n"):
            continue
        m = _ENTRY_RE.match(key)
        if not m:
            raise ConfigError(f"line {ln}: unknown system key {key!r}")
        if m.group(1) == "A":
            idx = _MATRIX_INDEX_RE.match(m.group(2))
            if not idx:
                raise ConfigError(f"line {ln}: matrix entries are A<row><col> or "
                                  f"A<row>_<col>, got {key!r}")
            r, c = (int(d) - 1 for d in idx.groups() if d is not None)
            if not (0 <= r < n and 0 <= c < n):
                raise ConfigError(f"line {ln}: entry {key!r} out of range for n={n}")
            if (r, c) in a_entries:
                raise ConfigError(f"line {ln}: matrix entry ({r + 1}, {c + 1}) given twice")
            a_entries[(r, c)] = parse_expression(value, ["t"], ln, col)
        else:
            if not m.group(2).isdigit():
                raise ConfigError(f"line {ln}: nonlinearity entries are f<k>, got {key!r}")
            k = int(m.group(2)) - 1
            if not 0 <= k < n:
                raise ConfigError(f"line {ln}: entry {key!r} out of range for n={n}")
            f_trees[k] = parse_expression(value, variables, ln, col)
    missing = [f"f{k + 1}" for k in range(n) if f_trees[k] is None]
    if missing:
        raise ConfigError(f"missing nonlinearity entries: {missing}")

    grid = _parse_grid(sections.get("grid", []))
    A, a_const = _build_matrix_eval(a_entries, n)
    f = _build_f_eval(f_trees, n)

    const_items = sections.get("constants", [])
    ckv = {}
    for k, v, ln, _ in const_items:
        if k not in _KNOWN_KEYS["constants"]:
            raise ConfigError(f"line {ln}: unknown constants key {k!r}")
        ckv[k] = (v, ln)

    spec = SystemSpec(
        n=n, A=A, f=f, grid=grid, mu=0.0, lip=0.0, a_constant=a_const,
        f_ignores_y=not any(v.startswith("y") for tree in f_trees for v in tree.variables),
        name="config",
    )

    def _const(name, default=None):
        if name not in ckv or ckv[name][0] == "":
            return default, False
        value, ln = ckv[name]
        if value == "estimate":
            return "estimate", True
        try:
            return float(value), False
        except ValueError:
            raise ConfigError(f"line {ln}: {name} must be numeric or 'estimate'") from None

    mu, mu_est = _const("mu", 0.0)
    lip, lip_est = _const("lip", 0.0)
    h0, _ = _const("h0")
    period, _ = _const("period")
    if mu == "estimate":
        mu = estimate_mu(spec)
    if lip == "estimate":
        lip = estimate_lipschitz(spec, box=1.0, samples=200)
    return replace(
        spec, mu=float(mu), lip=float(lip), h0=h0, period=period,
        mu_estimated=mu_est, lip_estimated=lip_est,
    )


# ---------------------------------------------------------------------------
# sampled constant estimation
# ---------------------------------------------------------------------------

def estimate_mu(spec):
    """Sampled lower bound on sup||A(t)|| over the working window (200 times)."""
    lo, hi = spec.grid.window
    ts = np.linspace(lo, hi, 200)
    return float(np.max(np.linalg.norm(spec.eval_A(ts), 2, axis=(1, 2))))


def estimate_lipschitz(spec, box, samples=200):
    """Sampled lower bound on the joint Lipschitz constant of f in (y, w).

    ``box`` is a per-coordinate half-width: arguments range over
    |y_k|, |w_k| <= box.  The sample set is deterministic (seed 0, 7 times
    across the window) and combines random pairs with axis-aligned probes
    at a dyadic ladder of scales, including short-separation pairs near
    the box boundary so derivative-attained suprema are approached.
    Reported as a lower bound on the true constant.  f is evaluated once
    per time, at both ends of every pair; a domain error at any of them
    raises with its position.
    """
    box = float(box)
    if box <= 0:
        raise InvalidParameterError("box half-width must be positive")
    if samples < 2:
        raise InvalidParameterError("need at least two samples")
    n = spec.n
    rng = np.random.default_rng(0)
    lo, hi = spec.grid.window
    ts = np.linspace(lo, hi, 7)

    pairs = []  # (y1, w1, y2, w2)
    scales = [1.0, 0.5, 0.25, 0.125]
    for s in scales:
        r = s * box
        # axis-aligned probes: vary one block, short and long separations
        for k in range(n):
            e = np.zeros(n)
            e[k] = r
            z = np.zeros(n)
            for delta in (2.0 * r, 1e-3 * r):
                d = np.zeros(n)
                d[k] = delta
                pairs.append((e, z, e - d, z))          # vary y only
                pairs.append((z, e, z, e - d))          # vary w only
                pairs.append((-e, z, -e + d, z))
                pairs.append((z, -e, z, -e + d))
        # random pairs within the scaled box
        m = max(1, samples // (4 * len(scales)))
        for _ in range(m):
            y1, w1, y2, w2 = (rng.uniform(-r, r, size=n) for _ in range(4))
            pairs.append((y1, w1, y2, w2))
            # short-separation variant near the same point
            d = rng.uniform(-1e-3 * r, 1e-3 * r, size=n)
            pairs.append((y1, w1, y1 + d, w1))

    # (pair, end, coordinate); pairs at distance 0 are left out
    y = np.array([(y1, y2) for y1, _w1, y2, _w2 in pairs])
    w = np.array([(w1, w2) for _y1, w1, _y2, w2 in pairs])
    den = np.linalg.norm(y[:, 0] - y[:, 1], axis=1) + np.linalg.norm(w[:, 0] - w[:, 1], axis=1)
    keep = den != 0
    y, w, den = y[keep].reshape(-1, n), w[keep].reshape(-1, n), den[keep]
    best = 0.0
    for t in ts:
        t_rows = np.full(len(y), t)
        fv = raise_at_first_nonfinite(spec.eval_f, spec.eval_f(t, y, w), t_rows, y, w)
        fv = fv.reshape(-1, 2, n)
        ratios = np.linalg.norm(fv[:, 0] - fv[:, 1], axis=1) / den
        # a pair whose difference is not a number (inf - inf) is skipped
        best = max(best, float(np.nanmax(ratios, initial=0.0)))
    return float(best)


# ---------------------------------------------------------------------------
# built-in problem registry
# ---------------------------------------------------------------------------

def _example1(window=(0.0, 10.0)):
    A = np.array([[2.0]])
    # full right-hand side is 2*y - w^2; the linear part lives in A
    def f(t, y, w):
        return -(w ** 2)
    return SystemSpec(
        n=1, A=lambda t: A, f=f, grid=make_uniform_grid(1.0, 0.0, window),
        mu=2.0, lip=5.0, h0=0.0, name="paper-example-1", a_constant=A,
        f_ignores_y=True,
    )


def _diag_dichotomy(sigma0=1.0, coupling=0.0, coupling_arg="frozen",
                    step=1.0, window=(-40.0, 40.0), f=None, lip=None):
    """diag(-sigma0, sigma0) with a pluggable small nonlinearity.

    ``coupling`` builds the cross-coupling amplitude a in
    f = (a*sin(x2), a*sin(x1)) where x is the frozen argument w
    (coupling_arg="frozen") or the current state y ("state").  A fully
    custom f may be passed together with its Lipschitz constant.
    """
    sigma0 = float(sigma0)
    if sigma0 <= 0:
        raise InvalidParameterError("sigma0 must be positive")
    A = np.diag([-sigma0, sigma0])
    f_ignores_y = f is None and (float(coupling) == 0.0 or coupling_arg == "frozen")
    if f is None:
        a = float(coupling)
        if a == 0.0:
            def f(t, y, w):
                return np.zeros_like(y)
        elif coupling_arg == "frozen":
            def f(t, y, w):
                return np.stack([a * np.sin(w[..., 1]), a * np.sin(w[..., 0])], axis=-1)
        elif coupling_arg == "state":
            def f(t, y, w):
                return np.stack([a * np.sin(y[..., 1]), a * np.sin(y[..., 0])], axis=-1)
        else:
            raise InvalidParameterError("coupling_arg must be 'frozen' or 'state'")
        lip = abs(a)
    elif lip is None:
        raise InvalidParameterError("custom f requires an explicit lip")
    return SystemSpec(
        n=2, A=lambda t: A, f=f, grid=make_uniform_grid(step, 0.0, window),
        mu=sigma0, lip=float(lip), h0=0.0, name="diag-dichotomy", a_constant=A,
        f_ignores_y=f_ignores_y,
    )


def _forced_scalar(level=0.5, feedback=0.0, step=1.0, window=(-30.0, 30.0)):
    """u' = -u + level + feedback*u(beta(t))."""
    A = np.array([[-1.0]])
    level = float(level)
    feedback = float(feedback)

    def f(t, y, w):
        return level + feedback * w

    return SystemSpec(
        n=1, A=lambda t: A, f=f, grid=make_uniform_grid(step, 0.0, window),
        mu=1.0, lip=abs(feedback), h0=abs(level), name="forced-scalar",
        a_constant=A, f_ignores_y=True,
    )


def _periodic_coupled(window=(0.0, 2.0)):
    """u' = -u + sin(2*pi*t) + 0.1*u(beta(t)) on the step-0.5 grid."""
    A = np.array([[-1.0]])

    def f(t, y, w):
        drive = np.sin(2.0 * np.pi * np.asarray(t, dtype=float))
        return drive[..., None] + 0.1 * w

    return SystemSpec(
        n=1, A=lambda t: A, f=f, grid=make_uniform_grid(0.5, 0.0, window),
        mu=1.0, lip=0.1, h0=1.0, period=1.0, name="periodic-coupled",
        a_constant=A, f_ignores_y=True,
    )


_BUILDERS = {
    "paper-example-1": _example1,
    "diag-dichotomy": _diag_dichotomy,
    "forced-scalar": _forced_scalar,
    "periodic-coupled": _periodic_coupled,
}
REGISTRY_NAMES = tuple(_BUILDERS)


def get_problem(name, **params):
    """Instantiate a registry problem by name."""
    if name not in _BUILDERS:
        raise InvalidParameterError(
            f"unknown problem {name!r}; available: {', '.join(REGISTRY_NAMES)}"
        )
    try:
        return _BUILDERS[name](**params)
    except TypeError as exc:
        raise InvalidParameterError(f"bad parameters for {name}: {exc}") from None
