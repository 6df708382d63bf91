#!/usr/bin/env python3
"""Bounded and periodic steady states.

A hyperbolic linear part plus a bounded forcing admits exactly one
solution bounded on the whole line; with periodic coefficients and a
compatible grid the same iteration lands on a periodic orbit, and every
intermediate iterate is already periodic.
"""

import numpy as np

from epcag_lab import (
    bounded_solution,
    get_problem,
    periodic_solution,
    periodicity_params,
    reduce,
)


def reduced(name, **kw):
    return reduce(get_problem(name, **kw))


print("u' = -u + 0.5: the bounded solution is the constant 0.5")
res = bounded_solution(reduced("forced-scalar"), window=(0.0, 5.0))
print(f"  max |z - 0.5| = {np.abs(res.zs - 0.5).max():.2e}")
print(f"  sup norm {res.sup_norm:.6f} <= a-priori bound {res.bound:.6f}")
print(f"  perturbed restart coincides within {res.probe_residual:.2e}")

print("\nadding weak frozen feedback 0.1*u(beta(t)): fixed point 5/9")
resf = bounded_solution(reduced("forced-scalar", feedback=0.1),
                        window=(0.0, 5.0), store_iterates=True)
print(f"  max |z - 5/9| = {np.abs(resf.zs - 0.5 / 0.9).max():.2e} "
      f"after {resf.iterations} iterations")
print("  iterate sup-changes:", " ".join(f"{d:.1e}" for d in resf.iterate_diffs))

print("\nperiod bookkeeping: omega / omega_bar as a reduced fraction")
for om, ob in [(1.0, 0.5), (1.0, 1.0), (2.0, 3.0)]:
    pp = periodicity_params(om, ob)
    print(f"  omega={om}, omega_bar={ob} -> k={pp.k}, m={pp.m}, "
          f"solution period {pp.period}")

print("\nperiodically forced problem on the half-step grid:")
pres = periodic_solution(reduced("periodic-coupled"))
print(f"  (k, m) = ({pres.pparams.k}, {pres.pparams.m}), "
      f"period {pres.pparams.period}")
print(f"  shift residual of the limit: {pres.residual:.2e}")
print(f"  worst shift residual over stored iterates: "
      f"{max(pres.iterate_residuals):.2e}")
ts, zs = pres.bounded.ts, pres.bounded.zs
for j in range(0, len(ts), len(ts) // 8):
    print(f"    z({ts[j]:4.2f}) = {zs[j][0]:+.6f}")
