"""Checks on the program's outputs.

Each check raises ``CheckFailed`` with a message naming what is wrong.
They compare against the values of ``oracles`` or test a property the
method must have; none compares against a stored copy of an earlier
output.  ``selftest.py`` feeds each of them a perturbed output.
"""

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(what, got, want, tol):
    """Largest absolute difference between got and want is within tol."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    require(err <= tol, f"{what}: error {err:.3g} > {tol:.3g}")


def roots_match(preimages, classification, expected, tol):
    """Preimages and their classification agree with the expected roots."""
    want = {0: "none", 1: "unique"}.get(len(expected), "multiple")
    require(classification == want,
            f"classification {classification!r}, expected {want!r}")
    got = sorted(float(np.ravel(p)[0]) for p in preimages)
    require(len(got) == len(expected),
            f"{len(got)} preimages, expected {len(expected)}")
    close("preimages", got, expected, tol)


def maps_back(images, target, tol):
    """Every image of a preimage under the forward solve hits the target."""
    for y in images:
        err = float(np.linalg.norm(np.asarray(y) - np.asarray(target)))
        require(err <= tol, f"preimage maps to {y}, {err:.3g} from the target")


def unique(classifications):
    """Each search found exactly one preimage (the backward-uniqueness
    inequality holds, so the shooting map is injective)."""
    bad = [c for c in classifications if c != "unique"]
    require(not bad, f"non-unique preimage searches: {bad}")


def small(what, value, limit):
    require(np.isfinite(value) and value <= limit,
            f"{what} = {value:.3g} exceeds {limit:.3g}")


def odd(F_plus, F_minus, tol):
    """F(t0, -c) = -F(t0, c) for an odd coupling."""
    close("F(t0,-c) + F(t0,c)", np.asarray(F_minus) + np.asarray(F_plus),
          np.zeros_like(np.asarray(F_plus, dtype=float)), tol)


def jacobian_matches_fd(J, F_plus, F_minus, h, rtol):
    """dF/dc (one-dimensional c) agrees with the central difference of F."""
    fd = (np.asarray(F_plus) - np.asarray(F_minus)) / (2.0 * h)
    rel = np.linalg.norm(np.asarray(J)[:, 0] - fd) / max(np.linalg.norm(fd), 1e-9)
    require(rel <= rtol, f"jacobian vs central difference: rel error {rel:.3g}")


def decay_ok(picard_result):
    require(bool(picard_result.decay_ok), "an iterate broke its decay certificate")


def bounded_certificates(res, contraction, tol, quad_tol=1e-9):
    """sup_norm <= bound, and the uniqueness probe is within the distance
    two iterations stopped at ``tol`` can have: 2 tol / (1 - contraction)."""
    small("sup_norm - bound", res.sup_norm - res.bound, quad_tol)
    small("probe residual", res.probe_residual, 2.0 * tol / (1.0 - contraction))


def shift_certificates(res, km, tol):
    """(k, m) as expected; the limit and every stored iterate repeat after
    one period within 10 tol."""
    require((res.pparams.k, res.pparams.m) == km,
            f"(k, m) = {(res.pparams.k, res.pparams.m)}, expected {km}")
    small("shift residual", res.residual, 10.0 * tol)
    small("worst iterate shift residual", max(res.iterate_residuals), 10.0 * tol)


def flow_bounds(report, n_pairs):
    """Every sampled flow-bound violation is within the report's tolerance."""
    require(report.n_pairs == n_pairs, f"{report.n_pairs} pairs, expected {n_pairs}")
    small("flow-bound violation", report.max_violation, report.tol)
    require(bool(report.passed), "flow-bound report did not pass")


def relative_close(what, got, want, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))
    require(err <= rtol, f"{what}: relative error {err:.3g} > {rtol:.3g}")
