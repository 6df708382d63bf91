"""Reference values computed apart from epcag_lab, with numpy alone.

Nothing here imports the library: each function is a closed form or a
small dense linear-algebra computation that the benchmark compares the
program's outputs against.
"""

import math

import numpy as np

E2 = math.exp(2.0)
# paper-example-1: x' = 2x - x(beta(t))^2 on the unit grid.  Its
# one-interval map x -> e^2 x - (e^2 - 1) x^2 / 2 peaks at X_STAR with
# value Z_STAR, the only target with exactly one (double) preimage.
Z_STAR = E2 ** 2 / (2.0 * (E2 - 1.0))
X_STAR = E2 / (E2 - 1.0)


def example1_roots(z):
    """Preimages of z under the example-1 map: roots of
    (e^2 - 1) x^2 - 2 e^2 x + 2 z = 0 by the quadratic formula, sorted."""
    a, b, c = E2 - 1.0, -2.0 * E2, 2.0 * z
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [-b / (2.0 * a)]
    r = math.sqrt(disc)
    return sorted([(-b - r) / (2.0 * a), (-b + r) / (2.0 * a)])


def expm(A, tau=1.0):
    """exp(tau*A) from numpy's eigendecomposition (A diagonalizable)."""
    lam, V = np.linalg.eig(np.asarray(A, dtype=float))
    return ((V * np.exp(lam * tau)) @ np.linalg.inv(V)).real


def knot_map(A, G, step=1.0):
    """Exact knot-to-knot map of z' = A z + G z(beta(t)) over one gap:
    z(theta + step) = [e^{A step} + A^{-1}(e^{A step} - I) G] z(theta)."""
    eA = expm(A, step)
    return eA + np.linalg.solve(A, eA - np.eye(len(A))) @ G


def stable_graph(M, k):
    """Slope S of the k-dimensional stable eigenspace of M, written as the
    graph v = S u over the leading k coordinates."""
    mu, W = np.linalg.eig(M)
    order = np.argsort(np.abs(mu))
    if not (np.abs(mu[order[k - 1]]) < 1.0 < np.abs(mu[order[k]])):
        raise ValueError("knot map has no k-dimensional stable eigenspace")
    Ws = W[:, order[:k]]
    return (Ws[k:] @ np.linalg.inv(Ws[:k])).real


def linear_manifold_slope(A, G, U, k):
    """dF/dc of the stable manifold of y' = A y + G y(beta(t)) (unit grid)
    in the coordinates z = U^{-1} y; the manifold itself is F(t0, c) = S c."""
    Ui = np.linalg.inv(U)
    return stable_graph(knot_map(Ui @ A @ U, Ui @ G @ U), k)


def equilibrium(A, B, h):
    """Constant solution of y' = A y + h + B y(beta(t)): -(A + B)^{-1} h."""
    return -np.linalg.solve(np.asarray(A) + np.asarray(B), np.asarray(h))


def periodic_coupled_solution(ts, a=-1.0, feedback=0.1, step=0.5, period=1.0):
    """1-periodic solution of u' = a u + sin(2 pi t) + feedback u(beta(t)) on
    the grid step*Z, at the times ts.

    On a gap [s, t] with u(s) = w frozen, variation of constants gives
    u(t) = p(t) + e^{a(t-s)}(w - p(s)) + feedback w (e^{a(t-s)} - 1)/a with
    p the periodic particular solution of u' = a u + sin(2 pi t).  The map
    over one period is affine in u(0); its fixed point fixes the solution.
    """
    q = 2.0 * math.pi
    den = a * a + q * q

    def p(t):
        return -(a * np.sin(q * t) + q * np.cos(q * t)) / den

    def gap(s, w, t):
        e = np.exp(a * (t - s))
        return p(t) + e * (w - p(s)) + feedback * w * (e - 1.0) / a

    n_gaps = int(round(period / step))

    def one_period(u0):
        u = u0
        for j in range(n_gaps):
            u = gap(j * step, u, (j + 1) * step)
        return u

    b = one_period(0.0)
    u0 = b / (1.0 - (one_period(1.0) - b))
    knot_vals = [u0]
    for j in range(n_gaps - 1):
        knot_vals.append(gap(j * step, knot_vals[-1], (j + 1) * step))
    tau = np.mod(np.asarray(ts, dtype=float), period)
    j = np.minimum(np.floor(tau / step + 1e-12).astype(int), n_gaps - 1)
    s = j * step
    return gap(s, np.asarray(knot_vals)[j], tau)


def diagonal_flow(antiderivatives, t, s):
    """X(t, s) = diag(exp(int_s^t a_k)) for a diagonal A(t) = diag(a_k(t)),
    from the antiderivatives of the a_k."""
    return np.diag([math.exp(F(t) - F(s)) for F in antiderivatives])
