"""Linear flow: fundamental matrices, dichotomy data, inequality checkers.

Norm bounds over one grid gap follow from sup||A(t)|| <= mu:

    exp(-mu|t-s|) <= ||X(t,s)|| <= exp(mu|t-s|),

so with M = exp(mu*theta) and m = exp(-mu*theta) every one-gap propagator
norm lies in [m, M].  The backward-uniqueness check evaluates

    lip*M*theta*(1 + M*(1 + lip*theta)*exp(M*lip*theta)) < m,

which guarantees that the one-interval shooting map is injective, hence
backward continuation is unique.  ``check_smallness`` gathers the
Lipschitz-smallness inequalities the manifold and steady-state engines
rely on, each reported with its margin.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NoDichotomyError, OutOfWindowError
from .integrate import propagator

__all__ = [
    "DichotomyData",
    "FlowBounds",
    "fundamental_matrix",
    "flow_bounds",
    "verify_flow_bounds",
    "dichotomy_for_constant_A",
    "check_backward_uniqueness",
    "check_smallness",
    "InequalityCheck",
    "SmallnessReport",
]


@dataclass(frozen=True)
class DichotomyData:
    """Projection and constants of an exponential dichotomy.

    ||X(t) P X^{-1}(s)||      <= K exp(-sigma (t-s)),  t >= s
    ||X(t) (I-P) X^{-1}(s)||  <= K exp( sigma (t-s)),  t <= s

    ``k_plus`` is the rank of P (dimension of the contracting part).
    """

    P: np.ndarray
    K: float
    sigma: float
    k_plus: int


@dataclass(frozen=True)
class FlowBounds:
    """One-gap operator norm bounds M = exp(mu*theta), m = exp(-mu*theta)."""

    M: float
    m: float


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    holds: bool
    margin: float

    def as_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class SmallnessReport:
    checks: tuple[InequalityCheck, ...]
    all_hold: bool

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self):
        return {"all_hold": self.all_hold, "checks": [c.as_dict() for c in self.checks]}


def fundamental_matrix(spec, t, s):
    """X(t, s) with X(s, s) = I, by integrating the matrix equation
    (in closed form when ``spec.a_constant`` is set).

    The propagator's default resolution keeps the per-unit-time error
    near 1e-10 for the registry-scale coefficient norms.
    """
    lo, hi = spec.grid.window
    if not (lo <= t <= hi and lo <= s <= hi):
        raise OutOfWindowError(f"t={t}, s={s} outside window [{lo}, {hi}]")
    A = spec.eval_A if spec.a_constant is None else np.asarray(spec.a_constant, dtype=float)
    return propagator(A, s, t)


def flow_bounds(spec):
    """One-gap bounds from the declared mu and the grid's gap bound."""
    mt = spec.mu * spec.grid.gap_bound
    return FlowBounds(M=math.exp(mt), m=math.exp(-mt))


@dataclass(frozen=True)
class FlowBoundReport:
    passed: bool
    max_violation: float
    worst_pair: tuple[float, float] | None
    n_pairs: int
    tol: float
    based_on_estimates: bool

    def as_dict(self):
        return {
            "passed": self.passed,
            "max_violation": self.max_violation,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
            "n_pairs": self.n_pairs,
            "tol": self.tol,
            "based_on_estimates": self.based_on_estimates,
        }


def verify_flow_bounds(spec, pairs=None, n_pairs=200, seed=0):
    """Check exp(-mu|t-s|) <= ||X(t,s)|| <= exp(mu|t-s|) on sampled pairs.

    Without ``pairs``, ``n_pairs`` pairs are drawn with |t - s| <= 2.
    Returns the worst violation; passes iff it stays within 1e-8.
    When mu was sample-estimated the report is labeled accordingly.
    Raises InvalidParameterError when there is no pair to check.
    """
    tol = 1e-8
    if (n_pairs if pairs is None else len(pairs)) < 1:
        raise InvalidParameterError("flow-bound check needs at least one (t, s) pair")
    lo, hi = spec.grid.window
    if pairs is None:
        rng = np.random.default_rng(seed)
        s = rng.uniform(lo, hi, n_pairs)
        span = rng.uniform(-2.0, 2.0, n_pairs)
        t = np.clip(s + span, lo, hi)
        pairs = np.stack([t, s], axis=1)
    worst = -np.inf
    worst_pair = None
    for t, s in pairs:
        norm = np.linalg.norm(fundamental_matrix(spec, t, s), 2)
        up = math.exp(spec.mu * abs(t - s))
        dn = math.exp(-spec.mu * abs(t - s))
        violation = max(norm - up, dn - norm)
        if violation > worst:
            worst, worst_pair = violation, (float(t), float(s))
    return FlowBoundReport(
        passed=bool(worst <= tol),
        max_violation=float(worst),
        worst_pair=worst_pair,
        n_pairs=len(pairs),
        tol=tol,
        based_on_estimates=spec.mu_estimated,
    )


def dichotomy_for_constant_A(A):
    """Spectral dichotomy data for a constant diagonalizable matrix.

    P projects onto the span of eigenvectors with negative real part,
    sigma is the spectral gap min|Re lambda| and K is the eigenvector
    matrix condition number (a computable, valid choice).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidParameterError("A must be a square matrix")
    vals, vecs = np.linalg.eig(A)
    re = vals.real
    central = np.abs(re) < 1e-9
    if np.any(central):
        raise NoDichotomyError(f"eigenvalue with |Re| < 1e-09: {vals[central]}")
    stable = re < 0
    sel = np.where(stable, 1.0, 0.0)
    Vinv = np.linalg.inv(vecs)
    P = (vecs * sel) @ Vinv
    if np.max(np.abs(P.imag)) > 1e-9:
        raise NoDichotomyError("spectral projection is not real")
    P = P.real
    K = float(np.linalg.cond(vecs, 2))
    return DichotomyData(
        P=P, K=max(1.0, K), sigma=float(np.min(np.abs(re))),
        k_plus=int(np.count_nonzero(stable)),
    )


def check_backward_uniqueness(mu, lip, theta):
    """Injectivity margin of the one-interval shooting map.

    Evaluates lip*M*theta*(1 + M*(1+lip*theta)*exp(M*lip*theta)) against
    m with M = exp(mu*theta), m = exp(-mu*theta); holds iff lhs < rhs.
    The verdict is the InequalityCheck named "backward_uniqueness".
    """
    if mu < 0 or lip < 0 or theta <= 0:
        raise InvalidParameterError("need mu >= 0, lip >= 0, theta > 0")
    M = math.exp(mu * theta)
    m = math.exp(-mu * theta)
    lhs = lip * M * theta * (1.0 + M * (1.0 + lip * theta) * math.exp(M * lip * theta))
    return InequalityCheck(name="backward_uniqueness", lhs=lhs, rhs=m,
                           holds=lhs < m, margin=m - lhs)


def check_smallness(K, sigma, alpha, theta, L, eps):
    """Evaluate the Lipschitz-smallness inequalities with margins.

    iterate_decay       K*(K+eps)*(2*sigma/(sigma^2-alpha^2))*(1+exp(sigma*theta))*L < eps
    contraction         L < (sigma-alpha) / (2*K*(1+exp(sigma*theta)))
    iterate_lipschitz   4*sigma*K*L*(1+exp(sigma*theta)) < sigma^2-alpha^2
    sup_contraction     2*K*L/sigma < 1
    cone_trapping       K*(K^2+1)*(1+exp(alpha*theta))*L < sigma

    The first three govern the manifold iteration, sup_contraction the
    bounded-solution iteration, cone_trapping the off-manifold growth
    estimates.  Overall pass iff every inequality holds.
    """
    if not (0 < alpha < sigma):
        raise InvalidParameterError(f"need 0 < alpha < sigma, got alpha={alpha}, sigma={sigma}")
    if K < 1:
        raise InvalidParameterError("K must be >= 1")
    if theta <= 0 or L < 0 or eps <= 0:
        raise InvalidParameterError("need theta > 0, L >= 0, eps > 0")
    es = math.exp(sigma * theta)
    ea = math.exp(alpha * theta)
    rows = [
        ("iterate_decay",
         K * (K + eps) * (2.0 * sigma / (sigma ** 2 - alpha ** 2)) * (1.0 + es) * L,
         eps),
        ("contraction", L, (sigma - alpha) / (2.0 * K * (1.0 + es))),
        ("iterate_lipschitz", 4.0 * sigma * K * L * (1.0 + es), sigma ** 2 - alpha ** 2),
        ("sup_contraction", 2.0 * K * L / sigma, 1.0),
        ("cone_trapping", K * (K ** 2 + 1.0) * (1.0 + ea) * L, sigma),
    ]
    checks = tuple(
        InequalityCheck(name=n, lhs=lhs, rhs=rhs, holds=lhs < rhs, margin=rhs - lhs)
        for n, lhs, rhs in rows
    )
    return SmallnessReport(checks=checks, all_hold=all(c.holds for c in checks))
