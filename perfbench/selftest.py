"""Tests of the benchmark's own parts: every check must fail on a perturbed
output, the oracles must be right, and the tracer must see the calls.

    python3 perfbench/selftest.py
"""

import json
import math
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import epcag_lab as lab  # noqa: E402
import checks  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

Fail = checks.CheckFailed


class ChecksRejectPerturbedOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.e1 = lab.get_problem("paper-example-1")
        cls.z = -3.0
        cls.ps = lab.back_continue_interval(cls.e1, 0, 1.0, [cls.z], substeps=64)

    def test_roots_match(self):
        expected = oracles.example1_roots(self.z)
        checks.roots_match(self.ps.preimages, self.ps.classification, expected, 1e-6)
        moved = [self.ps.preimages[0] + 1e-5, self.ps.preimages[1]]
        with self.assertRaises(Fail):
            checks.roots_match(moved, self.ps.classification, expected, 1e-6)
        with self.assertRaises(Fail):
            checks.roots_match(self.ps.preimages[:1], "unique", expected, 1e-6)
        with self.assertRaises(Fail):
            checks.roots_match(self.ps.preimages, "unique", expected, 1e-6)

    def test_maps_back(self):
        images = [lab.solve_forward(self.e1, 0.0, x, 1.0, substeps=64).ys[-1]
                  for x in self.ps.preimages]
        tol = workloads.ROOT_TOL * (1.0 + abs(self.z))
        checks.maps_back(images, [self.z], tol)
        with self.assertRaises(Fail):
            checks.maps_back(images, [self.z + 10 * tol], tol)

    def test_unique(self):
        checks.unique(["unique", "unique"])
        with self.assertRaises(Fail):
            checks.unique(["unique", "multiple"])
        with self.assertRaises(Fail):
            checks.unique(["none"])

    def test_small_and_close(self):
        checks.small("x", 1e-9, 1e-8)
        for bad in (2e-8, float("nan"), float("inf")):
            with self.assertRaises(Fail):
                checks.small("x", bad, 1e-8)
        checks.close("v", [1.0, 2.0], [1.0, 2.0 + 1e-9], 1e-8)
        with self.assertRaises(Fail):
            checks.close("v", [1.0, 2.0], [1.0, 2.0 + 1e-7], 1e-8)
        with self.assertRaises(Fail):
            checks.close("v", [1.0, 2.0], [1.0, 2.0, 3.0], 1e-8)
        checks.relative_close("M", 1e3 * np.eye(2), 1e3 * np.eye(2) + 1e-7, 1e-9)
        with self.assertRaises(Fail):
            checks.relative_close("M", np.eye(2), np.eye(2) + 1e-8, 1e-9)

    def test_odd_and_t0_independence_on_a_manifold(self):
        red = workloads.reduced(lab.get_problem("diag-dichotomy", coupling=0.01))
        mf = lab.ManifoldFn(red, "stable")
        F, F_neg = mf.value(0.0, [0.9]), mf.value(0.0, [-0.9])
        checks.odd(F, F_neg, 1e-10)
        with self.assertRaises(Fail):
            checks.odd(F, F_neg + 1e-9, 1e-10)
        checks.decay_ok(mf.evaluate(0.0, [0.9]))
        with self.assertRaises(Fail):
            checks.decay_ok(SimpleNamespace(decay_ok=False))

    def test_jacobian_matches_fd(self):
        c, h = 0.7, 1e-4
        F = lambda c: np.array([0.01 * math.sin(c)])
        J = np.array([[0.01 * math.cos(c)]])
        checks.jacobian_matches_fd(J, F(c + h), F(c - h), h, 1e-4)
        with self.assertRaises(Fail):
            checks.jacobian_matches_fd(J * 1.001, F(c + h), F(c - h), h, 1e-4)

    def test_bounded_certificates(self):
        good = SimpleNamespace(sup_norm=0.5, bound=1.0, probe_residual=1e-11)
        checks.bounded_certificates(good, 0.4, 1e-9)
        for change in ({"sup_norm": 1.1}, {"probe_residual": 1e-8}):
            with self.assertRaises(Fail):
                checks.bounded_certificates(SimpleNamespace(**{**vars(good), **change}), 0.4, 1e-9)

    def test_shift_certificates(self):
        good = SimpleNamespace(pparams=SimpleNamespace(k=2, m=1), residual=1e-9,
                               iterate_residuals=[1e-9, 2e-9])
        checks.shift_certificates(good, (2, 1), 1e-9)
        for change in ({"residual": 1e-7}, {"iterate_residuals": [1e-9, 1e-7]},
                       {"pparams": SimpleNamespace(k=1, m=1)}):
            with self.assertRaises(Fail):
                checks.shift_certificates(SimpleNamespace(**{**vars(good), **change}), (2, 1), 1e-9)

    def test_flow_bounds(self):
        spec = lab.get_problem("forced-scalar")
        pairs = workloads.flow_pairs(np.random.default_rng(0), spec.grid.window, 4)
        rep = lab.verify_flow_bounds(spec, pairs=pairs)
        checks.flow_bounds(rep, 4)
        with self.assertRaises(Fail):
            checks.flow_bounds(rep, 5)
        worse = SimpleNamespace(**{**vars(rep), "max_violation": 2 * rep.tol})
        with self.assertRaises(Fail):
            checks.flow_bounds(worse, 4)


class OraclesAreRight(unittest.TestCase):
    def test_example1_roots_solve_the_one_interval_map(self):
        for z in (-5.0, 0.0, 3.0):
            for x in oracles.example1_roots(z):
                self.assertAlmostEqual(oracles.E2 * x - (oracles.E2 - 1.0) * x * x / 2.0, z, 12)
        self.assertEqual(oracles.example1_roots(oracles.Z_STAR + 0.1), [])

    def test_expm_and_diagonal_flow_satisfy_their_equations(self):
        A, _G, _B = workloads.n8_matrices()
        t, h = 0.7, 1e-5
        d = (oracles.expm(A, t + h) - oracles.expm(A, t - h)) / (2 * h)
        np.testing.assert_allclose(d, A @ oracles.expm(A, t), rtol=0, atol=1e-7)
        X = lambda t: oracles.diagonal_flow(workloads.TV_ANTIDERIVATIVES, t, 2.0)
        d = (X(t + h) - X(t - h)) / (2 * h)
        a = np.diag([-1 + 0.5 * math.sin(t), 1.2 + 0.3 * math.cos(2 * t), -0.7])
        np.testing.assert_allclose(d, a @ X(t), rtol=0, atol=1e-8)

    def test_stable_graph_is_invariant(self):
        A, G, _B = workloads.n8_matrices()
        M = oracles.knot_map(A, 0.004 * G)
        S = oracles.stable_graph(M, 4)
        image = M @ np.vstack([np.eye(4), S])
        np.testing.assert_allclose(image[4:], S @ image[:4], atol=1e-12)

    def test_equilibrium(self):
        A, _G, B = workloads.n8_matrices()
        h = np.arange(8.0)
        y = oracles.equilibrium(A, B, h)
        np.testing.assert_allclose((A + B) @ y + h, 0.0, atol=1e-12)

    def test_periodic_solution_is_periodic_and_solves_the_equation(self):
        ts = np.linspace(0.05, 0.45, 9)
        u = oracles.periodic_coupled_solution
        np.testing.assert_allclose(u(ts + 1.0), u(ts), atol=1e-14)
        h = 1e-5
        du = (u(ts + h) - u(ts - h)) / (2 * h)
        np.testing.assert_allclose(du, -u(ts) + np.sin(2 * np.pi * ts) + 0.1 * u(0.0), atol=1e-8)
        self.assertAlmostEqual(float(u(1.0 - 1e-12)), float(u(0.0)), 9)


def drawn_inputs(op):
    """{free variable: its numbers, flattened} of an operation's closure."""
    out = {}

    def collect(v, values):
        if isinstance(v, (list, tuple)):
            for x in v:
                collect(x, values)
        elif isinstance(v, (int, float, np.ndarray)) and not isinstance(v, bool):
            values.append(np.asarray(v, dtype=float).ravel())

    for name, cell in zip(op.__code__.co_freevars, op.__closure__ or ()):
        values = []
        collect(cell.cell_contents, values)
        if values:
            out[name] = np.concatenate(values)
    return out


class RoundsDrawFreshInputs(unittest.TestCase):
    # the numbers that define a workload rather than a round's inputs
    FIXED = {"substeps", "bad_target", "S", "tol8", "j", "feedback", "A", "B"}

    def test_every_input_changes_from_round_to_round(self):
        # a knot or a seed drawn from a small set may recur in the next
        # round, but not in the two after it as well
        for name in workloads.BY_NAME:
            wl = workloads.build(name, 3)
            rounds = [wl.new_round() for _ in range(3)]
            self.assertEqual(len({tuple(n for n, _ in r) for r in rounds}), 1, name)
            for ops in zip(*rounds):
                op_name = ops[0][0]
                drawn = [drawn_inputs(op) for _, op in ops]
                for var in set(drawn[0]) - self.FIXED:
                    if drawn[0][var].size:
                        self.assertFalse(all(np.array_equal(drawn[0][var], d[var])
                                             for d in drawn[1:]),
                                         f"{name}: {op_name} repeats its {var}")

    def test_the_seed_fixes_the_inputs(self):
        for name in workloads.BY_NAME:
            a, b = workloads.build(name, 5).new_round(), workloads.build(name, 5).new_round()
            for (op_name, op_a), (_, op_b) in zip(a, b):
                x, y = drawn_inputs(op_a), drawn_inputs(op_b)
                self.assertEqual(set(x), set(y))
                for var in x:
                    np.testing.assert_array_equal(x[var], y[var], err_msg=f"{name}: {op_name}")


class TracerSeesTheCalls(unittest.TestCase):
    def test_spans_nest_and_install_is_undone(self):
        original = lab.solver.rk4_final
        tr = tracer.Tracer()
        tr.install()
        try:
            spec = tr.wrap_spec(lab.get_problem("paper-example-1"))
            lab.back_continue_interval(spec, 0, 1.0, [0.5], substeps=8)
        finally:
            tr.uninstall()
        self.assertIs(lab.solver.rk4_final, original)
        names = [tr.names[k] for k in tr.name_id]
        self.assertEqual(names[0], "solver.back_continue_interval")
        self.assertEqual(tr.parent[0], -1)
        i = names.index("integrate.rk4_final")
        self.assertEqual(tr.parent[i], 0)
        self.assertEqual(names[tr.parent[names.index("system.f")]], "integrate.rk4_final")
        span = tr.end[0] - tr.start[0]
        m = tr.metrics([{"start": tr.start[0], "end": tr.end[0], "wall": span,
                         "wall_ref": span}], {})
        self.assertEqual(m["solver.back_continue_interval.calls"][0], 1.0)
        self.assertGreater(m["system.f.rows"][0], m["system.f.calls"][0])
        self.assertAlmostEqual(m["share.solver"][0], 1.0, 12)
        self.assertEqual(set(m), set(tracer.metric_catalog()))

    def test_benchmark_json_lists_the_catalog(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         tracer.metric_catalog())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.BY_NAME))


if __name__ == "__main__":
    unittest.main()
