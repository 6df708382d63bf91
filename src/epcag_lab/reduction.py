"""Reduction to box-diagonal coordinates that split the dichotomy.

Supported inputs are (a) systems whose coefficient matrix is already
box-diagonal with the dichotomy projection aligned to the leading k
coordinates (the transformation is then the identity) and (b) constant
diagonalizable matrices, handled through a constant change of basis whose
blocks are orthonormalized invariant-subspace bases.  The general
time-varying orthogonalization flow is out of scope.

For a constant basis U the transformed system is

    z' = diag(B_plus, B_minus) z + g(t, z(t), z(beta(t))),
    g(t, z, w) = U^{-1} f(t, U z, U w),

and the basis is rescaled so ||U^{-1}|| = 1, which makes the declared
Lipschitz constant L = 2*sup||U||*lip a true upper bound for g.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, UnsupportedSystemError
from .integrate import propagator
from .system import SystemSpec

__all__ = ["ReducedSystem", "SplitPropagators", "reduce", "propagators"]


@dataclass(frozen=True)
class ReducedSystem:
    """Box-diagonal form of a system with a verified dichotomy.

    The blocks are ``propagator`` coefficients: arrays when A is constant.
    """

    k: int                      # contracting dimension
    m: int                      # expanding dimension (n - k)
    b_plus: object              # (k, k) array, or callable t -> (k, k)
    b_minus: object             # (m, m) array, or callable t -> (m, m)
    g: object                   # callable (t, z, w) -> like z
    u_trans: np.ndarray         # constant transformation y = U z
    u_trans_inv: np.ndarray
    L: float                    # declared joint Lipschitz constant of g
    K: float                    # dichotomy constants inherited for the blocks
    sigma: float
    sup_u: float
    spec: SystemSpec

    @property
    def n(self):
        return self.k + self.m

    def split(self, z):
        return z[..., : self.k], z[..., self.k:]

    def reduced_spec(self):
        """The reduced equations as a simulatable system."""
        n = self.n
        if isinstance(self.b_plus, np.ndarray):
            Ared = np.zeros((n, n))
            Ared[: self.k, : self.k] = self.b_plus
            Ared[self.k:, self.k:] = self.b_minus
            mu = float(np.linalg.norm(Ared, 2)) if n else 0.0
            A_eval = lambda t, _m=Ared: _m
            a_const = Ared
        else:
            def A_eval(t):
                out = np.zeros((n, n))
                out[: self.k, : self.k] = self.b_plus(t)
                out[self.k:, self.k:] = self.b_minus(t)
                return out
            a_const = None
            mu = self.spec.mu
        h0 = None
        if self.spec.h0 is not None:
            # ||U^{-1}|| = 1 so h0 transfers unchanged
            h0 = self.spec.h0
        return SystemSpec(
            n=n, A=A_eval, f=self.g, grid=self.spec.grid, mu=mu, lip=self.L,
            h0=h0, period=self.spec.period, name=self.spec.name + "-reduced",
            a_constant=a_const, f_ignores_y=self.spec.f_ignores_y,
            mu_estimated=self.spec.mu_estimated, lip_estimated=self.spec.lip_estimated,
        )

    def with_time_wrapped(self, omega):
        """Evaluate coefficients by argument reduction mod omega (constant
        blocks stay as they are)."""
        omega = float(omega)

        def wrap(t):
            t = np.asarray(t, dtype=float)
            return t - omega * np.floor(t / omega)

        def wrapped(block):
            if isinstance(block, np.ndarray):
                return block
            return lambda t: block(float(wrap(t)))

        g = self.g
        return replace(
            self,
            b_plus=wrapped(self.b_plus),
            b_minus=wrapped(self.b_minus),
            g=(lambda t, z, w: g(wrap(t), z, w)),
        )


@dataclass(frozen=True)
class SplitPropagators:
    """Normed fundamental matrices of the two diagonal blocks.

    ``checks`` lists the sampled decay checks as (t, s, block, norm,
    bound) for the block's propagator at (t, s); ``worst_violation`` is
    the largest norm - bound, floored at 0.  Without verification they
    are empty and None.
    """

    uprop: object  # callable (t, s) -> (k, k)
    vprop: object  # callable (t, s) -> (m, m)
    checks: tuple = ()
    worst_violation: float | None = None


def _orthonormal_basis(cols):
    """Gram-Schmidt orthonormalization (via QR) of real basis columns."""
    if cols.shape[1] == 0:
        return cols
    q, r = np.linalg.qr(cols)
    if np.min(np.abs(np.diag(r))) < 1e-12 * max(1.0, np.max(np.abs(r))):
        raise UnsupportedSystemError("invariant subspace basis is rank deficient")
    return q


def _real_invariant_basis(vals, vecs, select):
    """Real basis of the invariant subspace for the selected eigenvalues."""
    cols = []
    used = np.zeros(len(vals), dtype=bool)
    for j in range(len(vals)):
        if used[j] or not select[j]:
            continue
        used[j] = True
        v = vecs[:, j]
        if abs(vals[j].imag) < 1e-12:
            cols.append(v.real)
        else:
            # complex pair contributes its real and imaginary parts once
            cols.append(v.real)
            cols.append(v.imag)
            conj = np.where(~used & select & np.isclose(vals, vals[j].conjugate()))[0]
            if len(conj):
                used[conj[0]] = True
    if not cols:
        return np.zeros((vecs.shape[0], 0))
    return np.stack(cols, axis=1)


def reduce(spec, dich):
    """Split a system into contracting/expanding blocks.

    Requires a constant coefficient matrix, or one that is already
    box-diagonal with the dichotomy projection aligned to the leading
    coordinates; anything else raises UnsupportedSystemError.
    """
    n = spec.n
    k = dich.k_plus
    m = n - k
    tol = 1e-8  # of the projection and block-diagonal alignment checks
    aligned = np.zeros((n, n))
    aligned[:k, :k] = np.eye(k)

    def _identity_route(b_plus, b_minus):
        return ReducedSystem(
            k=k, m=m, b_plus=b_plus, b_minus=b_minus, g=spec.eval_f,
            u_trans=np.eye(n), u_trans_inv=np.eye(n),
            L=2.0 * spec.lip, K=dich.K, sigma=dich.sigma, sup_u=1.0,
            spec=spec,
        )

    if spec.a_constant is not None:
        A = np.asarray(spec.a_constant, dtype=float)
        off = A - aligned @ A @ aligned - (np.eye(n) - aligned) @ A @ (np.eye(n) - aligned)
        if (np.linalg.norm(dich.P - aligned) <= tol
                and np.linalg.norm(off) <= tol * max(1.0, np.linalg.norm(A))):
            return _identity_route(A[:k, :k].copy(), A[k:, k:].copy())
        vals, vecs = np.linalg.eig(A)
        stable = vals.real < 0
        q1 = _orthonormal_basis(_real_invariant_basis(vals, vecs, stable))
        q2 = _orthonormal_basis(_real_invariant_basis(vals, vecs, ~stable))
        if q1.shape[1] != k or q2.shape[1] != m:
            raise UnsupportedSystemError(
                "real invariant bases do not match the dichotomy split "
                f"({q1.shape[1]} vs k={k})"
            )
        Bp = q1.T @ A @ q1
        Bm = q2.T @ A @ q2
        U = np.concatenate([q1, q2], axis=1) if k and m else (q1 if k else q2)
        U_inv = np.linalg.inv(U)
        # rescale so ||U^{-1}|| = 1; block similarity is scale invariant
        scale = np.linalg.norm(U_inv, 2)
        U = U * scale
        U_inv = U_inv / scale
        sup_u = float(np.linalg.norm(U, 2))

        def g(t, z, w, _U=U, _Ui=U_inv):
            y = z @ _U.T
            wv = w @ _U.T
            return spec.eval_f(t, y, wv) @ _Ui.T

        return ReducedSystem(
            k=k, m=m, b_plus=Bp, b_minus=Bm,
            g=g, u_trans=U, u_trans_inv=U_inv, L=2.0 * sup_u * spec.lip,
            K=dich.K, sigma=dich.sigma, sup_u=sup_u, spec=spec,
        )

    # time-varying: accept only already box-diagonal, dichotomy-aligned A
    if np.linalg.norm(dich.P - aligned) > tol:
        raise UnsupportedSystemError(
            "time-varying A requires a dichotomy projection aligned to the "
            "leading coordinates"
        )
    lo, hi = spec.grid.window
    for t in np.linspace(lo, hi, 9):
        At = spec.eval_A(t)
        off = np.linalg.norm(At[:k, k:]) + np.linalg.norm(At[k:, :k])
        if off > tol * max(1.0, np.linalg.norm(At)):
            raise UnsupportedSystemError(
                f"A({t:g}) is not box-diagonal; general time-varying "
                "coefficient matrices are unsupported"
            )
    return _identity_route(
        lambda t: spec.eval_A(t)[:k, :k],
        lambda t: spec.eval_A(t)[k:, k:],
    )


def propagators(red, verify=True, n_pairs=40, seed=0):
    """Fundamental matrices of the two blocks, with sampled decay checks.

    ||uprop(t,s)|| <= K exp(-sigma (t-s)) for t >= s and
    ||vprop(t,s)|| <= K exp( sigma (t-s)) for t <= s are verified on
    ``n_pairs`` sampled pairs with |t - s| <= 3; a violation beyond 1e-7
    warns rather than fails.  With ``verify``, ``n_pairs`` must be >= 1.
    """
    if verify and n_pairs < 1:
        raise InvalidParameterError(f"propagator check needs n_pairs >= 1, got {n_pairs}")
    uprop = lambda t, s: propagator(red.b_plus, s, t)
    vprop = lambda t, s: propagator(red.b_minus, s, t)
    checks = []
    worst = None
    if verify:
        lo, hi = red.spec.grid.window
        rng = np.random.default_rng(seed)
        for _ in range(n_pairs):
            s = rng.uniform(lo, hi)
            dt = rng.uniform(0.0, 3.0)
            t = min(s + dt, hi)
            if red.k:
                checks.append((t, s, "contracting", np.linalg.norm(uprop(t, s), 2),
                               red.K * np.exp(-red.sigma * (t - s))))
            if red.m:
                # decaying: s <= t reversed
                checks.append((s, t, "expanding", np.linalg.norm(vprop(s, t), 2),
                               red.K * np.exp(red.sigma * (s - t))))
        worst = max([0.0] + [norm - bound for *_, norm, bound in checks])
        if worst > 1e-7:
            warnings.warn(
                f"sampled block propagator norms exceed the declared dichotomy "
                f"bounds by {worst:.3g}", RuntimeWarning, stacklevel=2,
            )
    return SplitPropagators(uprop=uprop, vprop=vprop, checks=tuple(checks),
                            worst_violation=worst)
