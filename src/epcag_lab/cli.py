"""Command-line front end.

Subcommands: simulate, backcontinue, manifold, bounded, periodic, check,
reduce, verify.  Systems come from the built-in registry (--problem) or a
config file given as positional argument.  Artifacts are CSV plus a
versioned JSON report; exit codes: 0 success, 2 no preimage, 4 a failed
verdict of check/verify, and otherwise the ``exit_code`` of the raised
``EpcagError`` (1 by default, 3 integration failure, 4 condition-check
failure).
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .errors import ConditionError, ConfigError, EpcagError, InvalidParameterError, NoDichotomyError
from .linear import check_backward_uniqueness, check_smallness, dichotomy_for_constant_A
from .manifold import ManifoldFn, ManifoldParams, picard_stable, picard_unstable
from .reduction import propagators, reduce
from .reporting import emit_report, fmt
from .solver import back_continue, solve_forward
from .steady import SteadyParams, bounded_solution, periodic_solution
from .system import check_run_value, get_problem, parse_config

EXIT_OK = 0
EXIT_NO_PREIMAGE = 2


def _vector(text):
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _sweep(text):
    """Parse --grid-of-c's lo:hi:count."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError(f"--grid-of-c takes lo:hi:count, got {text!r}") from None
    if count < 1:
        raise ConfigError(f"--grid-of-c needs a positive count, got {count}")
    return np.linspace(lo, hi, count)


def _load_spec(args):
    """Resolve the system plus any [run]/[tolerances] config overrides.

    Explicit command-line flags win over config values, which win over
    the built-in defaults.  The seed is checked here, so a bad one fails
    before any work is done or printed.
    """
    if getattr(args, "problem", None):
        spec, name = get_problem(args.problem), args.problem
    elif getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        spec, args._config_overrides = parse_config(path.read_text())
        name = path.stem
    else:
        raise ConfigError("supply --problem NAME or a config file path")
    _seed(args)
    return spec, name


def _resolved(args, flag, config_key, default):
    value = getattr(args, flag, None)
    if value is not None:
        check_run_value(config_key, value, f"--{flag}")
        return value
    return getattr(args, "_config_overrides", {}).get(config_key, default)


def _outdir(args):
    return (args.out or getattr(args, "_config_overrides", {}).get("out")
            or os.environ.get("EPCAG_LAB_OUT") or ".")


def _seed(args):
    return _resolved(args, "seed", "seed", 0)


def _report(args, name, results, table=None, extra=None):
    """Write the command's JSON report, with its (header, rows) ``table``
    as CSV and ``extra`` as auxiliary CSV tables, and name the files when
    a table was written.  Every subcommand calls this last, so a command
    that fails writes no file."""
    header, rows = table or (None, None)
    _, paths = emit_report(_outdir(args), args.command, name, results,
                           params=vars_of(args), seed=_seed(args), csv_header=header,
                           csv_rows=rows, stamp=args.stamp, extra_csv=extra)
    if table is not None:
        print(f"wrote {paths['csv']} and {paths['json']}")


def _z_table(ts, zs):
    """The t, z1..zn table of a reduced-coordinate trajectory."""
    return (["t"] + [f"z{k + 1}" for k in range(zs.shape[1])],
            [[t, *z] for t, z in zip(ts, zs)])


def _path_rows(path):
    n = path.ys.shape[1]
    header = (["t"] + [f"y{k + 1}" for k in range(n)] + ["interval_index"]
              + [f"frozen_w{k + 1}" for k in range(n)])
    rows = []
    for j in range(len(path.ts)):
        rows.append([path.ts[j], *path.ys[j], str(int(path.intervals[j])),
                     *path.frozen[j]])
    return header, rows


def cmd_simulate(args):
    spec, name = _load_spec(args)
    w0 = _vector(args.w0) if args.w0 else None
    path = solve_forward(spec, args.t0, _vector(args.x0), args.t_end,
                         substeps=_resolved(args, "substeps", "substeps", 64),
                         w0=w0)
    results = {
        "t0": path.t0, "t_end": path.t_end,
        "final_state": path.ys[-1], "segments": path.diagnostics["segments"],
    }
    print(f"simulated {name} on [{path.t0:g}, {path.t_end:g}]; "
          f"final state {np.array2string(path.ys[-1], precision=6)}")
    _report(args, name, results, _path_rows(path))
    return EXIT_OK


def cmd_backcontinue(args):
    spec, name = _load_spec(args)
    res = back_continue(spec, args.t0, _vector(args.x0), args.t_target,
                        substeps=_resolved(args, "substeps", "substeps", 64),
                        root_tol=_resolved(args, "root_tol", "root_tol", 1e-9))
    results = {
        "ok": res.ok,
        "flags": res.flags,
        "failed_interval": res.failed_interval,
        "residual": res.residual,
        "steps": [
            {"interval": s.interval, "classification": s.classification,
             "preimages": [list(p) for p in s.preimages],
             "residuals": s.residuals, "diagnostics": s.diagnostics}
            for s in res.steps
        ],
    }
    if not res.ok:
        print(f"no preimage at interval {res.failed_interval}; continuation died")
        _report(args, name, results)
        return EXIT_NO_PREIMAGE
    print(f"backward continuation reached t={res.path.t0:g} "
          f"(residual {res.residual:.3g})")
    for flag in res.flags:
        print(f"  note: {flag}")
    _report(args, name, results, _path_rows(res.path))
    return EXIT_OK


def cmd_manifold(args):
    spec, name = _load_spec(args)
    red = reduce(spec)
    params = ManifoldParams(
        alpha=args.alpha, eps=args.eps,
        tol=_resolved(args, "tol", "picard_tol", 1e-8),
        horizon=args.horizon,
        substeps=_resolved(args, "substeps", "substeps", 64))
    if args.grid_of_c:
        values = _sweep(args.grid_of_c)
        dim = red.k if args.side == "stable" else red.m
        if dim != 1:
            raise InvalidParameterError("--grid-of-c needs a one-dimensional anchor")
        cs = [np.array([c]) for c in values]
    elif args.c is not None:
        cs = [_vector(args.c)]
    else:
        raise ConfigError("supply --c or --grid-of-c")
    runner = picard_stable if args.side == "stable" else picard_unstable
    rows = []
    extra = {}
    sweep = []
    for idx, c in enumerate(cs):
        res = runner(red, args.t0, c, params)
        ratio = res.observed_contraction
        rows.append([*c, *res.f_value, str(res.iterations),
                     ratio if ratio is not None else float("nan")])
        sweep.append({"c": c, "value": res.f_value, "iterations": res.iterations,
                      "contraction_ratio": ratio, "decay_ok": res.decay_ok,
                      "in_contraction_regime": res.in_contraction_regime})
        extra[f"trajectory-{idx:03d}"] = _z_table(res.ts, res.zs)
    dim = len(cs[0])
    header = ([f"c{k + 1}" for k in range(dim)]
              + [f"F{k + 1}" for k in range(len(sweep[0]["value"]))]
              + ["iterations", "contraction_ratio"])
    results = {"side": args.side, "t0": args.t0, "points": sweep}
    print(f"{args.side} manifold of {name}: {len(cs)} point(s) at t0={args.t0:g}")
    for pt in sweep:
        print(f"  c={np.array2string(pt['c'], precision=4)} -> "
              f"F={np.array2string(pt['value'], precision=8)} "
              f"({pt['iterations']} iterations)")
    _report(args, name, results, (header, rows), extra)
    return EXIT_OK


def cmd_bounded(args):
    spec, name = _load_spec(args)
    red = reduce(spec)
    params = SteadyParams(tol=_resolved(args, "tol", "steady_tol", 1e-9),
                          substeps=_resolved(args, "substeps", "substeps", 64))
    window = tuple(args.window) if args.window else None
    res = bounded_solution(red, window=window, params=params, seed=_seed(args))
    results = {
        "bound": res.bound, "sup_norm": res.sup_norm,
        "iterations": res.iterations, "uniqueness_probe": res.probe_residual,
        "horizon": res.horizon, "H": res.H,
        "backward_uniqueness": res.backward_uniqueness.as_dict(),
    }
    print(f"bounded solution of {name}: sup norm {res.sup_norm:.8g} "
          f"<= bound {res.bound:.8g}; {res.iterations} iterations")
    _report(args, name, results, _z_table(res.ts, res.zs))
    return EXIT_OK


def cmd_periodic(args):
    spec, name = _load_spec(args)
    red = reduce(spec)
    params = SteadyParams(tol=_resolved(args, "tol", "steady_tol", 1e-9),
                          substeps=_resolved(args, "substeps", "substeps", 64))
    res = periodic_solution(red, params=params)
    results = {
        "k": res.pparams.k, "m": res.pparams.m, "period": res.pparams.period,
        "residual": res.residual, "certified": res.certified,
        "iterations": res.bounded.iterations,
        "iterate_residuals": res.iterate_residuals,
        "bound": res.bounded.bound, "sup_norm": res.bounded.sup_norm,
    }
    print(f"periodic solution of {name}: (k, m) = ({res.pparams.k}, "
          f"{res.pparams.m}), period {res.pparams.period:g}, "
          f"shift residual {res.residual:.3g}")
    _report(args, name, results, _z_table(res.bounded.ts, res.bounded.zs))
    return EXIT_OK


def _print_table(rows):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def cmd_check(args):
    name = "direct"
    mu = args.mu
    lip = args.l
    theta = args.theta
    K, sigma = args.K, args.sigma
    if args.problem or args.config:
        spec, name = _load_spec(args)
        mu = mu if mu is not None else spec.mu
        lip = lip if lip is not None else spec.lip
        theta = theta if theta is not None else spec.grid.gap_bound
        if (K is None or sigma is None) and spec.a_constant is not None:
            try:
                dich = dichotomy_for_constant_A(spec.a_constant)
                K = K if K is not None else dich.K
                sigma = sigma if sigma is not None else dich.sigma
            except NoDichotomyError:
                pass
    else:
        _seed(args)  # as _load_spec does: a bad seed fails before the table
    if mu is None or lip is None or theta is None:
        raise ConfigError("check needs --mu, --l and --theta (or a system)")
    bw = check_backward_uniqueness(mu, lip, theta)
    checks = [bw]
    results = {"backward_uniqueness": bw.as_dict(), "mu": mu, "lip": lip,
               "theta": theta}
    if args.problem or args.config:
        estimated = spec.estimated_constants
        results["based_on_sampled_estimates"] = estimated
        if estimated:
            print(f"note: sampled lower-bound estimates in use for "
                  f"{', '.join(estimated)}; verdicts are based on sampled "
                  "estimates")
    if K is not None and sigma is not None:
        alpha = args.alpha if args.alpha is not None else sigma / 2.0
        eps = args.eps if args.eps is not None else K
        L = args.L if args.L is not None else 2.0 * lip
        rep = check_smallness(K, sigma, alpha, theta, L, eps)
        checks = [bw, *rep.checks]
        results["smallness"] = rep.as_dict()
        results.update({"K": K, "sigma": sigma, "alpha": alpha, "eps": eps, "L": L})
    print(f"inequality check ({name}):")
    _print_table([["inequality", "lhs", "rhs", "margin", "verdict"]]
                 + [[c.name, fmt(c.lhs), fmt(c.rhs), fmt(c.margin),
                     "holds" if c.holds else "FAILS"] for c in checks])
    _report(args, name, results)
    return EXIT_OK if all(c.holds for c in checks) else ConditionError.exit_code


def cmd_reduce(args):
    if args.pairs < 1:
        raise ConfigError(f"--pairs must be at least 1, got {args.pairs}")
    spec, name = _load_spec(args)
    red = reduce(spec)
    sp = propagators(red, n_pairs=args.pairs, seed=_seed(args))
    rows = [["pair (t, s)", "block", "norm", "bound", "ok"]]
    rows += [[f"({a:.3f}, {b:.3f})", block, fmt(nrm), fmt(bnd), str(nrm <= bnd + 1e-7)]
             for a, b, block, nrm, bnd in sp.checks]
    print(f"reduction of {name}: contracting dim {red.k}, expanding dim {red.m}")
    print(f"  ||U|| = {red.sup_u:.6g}, L = {red.L:.6g}, K = {red.K:.6g}, "
          f"sigma = {red.sigma:.6g}")
    _print_table(rows)
    results = {
        "k": red.k, "m": red.m, "sup_u": red.sup_u, "L": red.L,
        "K": red.K, "sigma": red.sigma, "u_trans": red.u_trans,
        "worst_bound_violation": sp.worst_violation,
    }
    _report(args, name, results)
    return EXIT_OK


def cmd_verify(args):
    only = None
    if args.only:
        try:
            only = {int(x) for x in args.only.split(",")}
        except ValueError:
            raise ConfigError(f"--only takes criterion numbers, got {args.only!r}") from None
        unknown = sorted(only - {num for num, _name, _fn in acceptance.CRITERIA})
        if unknown:
            raise ConfigError(f"--only: no criterion {', '.join(map(str, unknown))}")
    # the timed lines carry wall-clock time, so they go to stderr
    echo = lambda line: print(line, file=sys.stderr)
    results = acceptance.run_all(seed=_seed(args), only=only, echo=echo)
    payload = {
        "all_passed": all(r.passed for r in results),
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "details": r.details}
            for r in results
        ],
    }
    total = sum(r.elapsed for r in results)
    echo(f"{sum(r.passed for r in results)}/{len(results)} criteria passed "
         f"in {total:.1f}s")
    _report(args, "registry", payload)
    return EXIT_OK if payload["all_passed"] else ConditionError.exit_code


def vars_of(args):
    skip = {"func", "out", "stamp"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and not k.startswith("_") and not callable(v)}


def _add_common(p, system=True):
    if system:
        p.add_argument("config", nargs="?", help="config file path")
        p.add_argument("--problem", help="registry problem name")
    p.add_argument("-o", "--out", help="output directory (or EPCAG_LAB_OUT)")
    p.add_argument("--seed", type=int)
    p.add_argument("--stamp", help=argparse.SUPPRESS)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="epcag-lab",
        description="Simulation, backward continuation, integral manifolds and "
                    "steady states for equations with piecewise constant "
                    "argument of generalized type.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward EPCAG integration")
    _add_common(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--t-end", dest="t_end", type=float, required=True)
    p.add_argument("--w0", help="frozen value when t0 is not a knot")
    p.add_argument("--substeps", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("backcontinue", help="backward continuation")
    _add_common(p)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--t-target", dest="t_target", type=float, required=True)
    p.add_argument("--substeps", type=int)
    p.set_defaults(func=cmd_backcontinue)

    p = sub.add_parser("manifold", help="stable/unstable manifold values")
    _add_common(p)
    p.add_argument("--side", choices=["stable", "unstable"], default="stable")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--c", help="anchor components, comma separated")
    p.add_argument("--grid-of-c", dest="grid_of_c", help="lo:hi:count sweep")
    p.add_argument("--alpha", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--substeps", type=int)
    p.set_defaults(func=cmd_manifold)

    p = sub.add_parser("bounded", help="bounded-on-the-line solution")
    _add_common(p)
    p.add_argument("--window", type=float, nargs=2)
    p.add_argument("--tol", type=float)
    p.add_argument("--substeps", type=int)
    p.set_defaults(func=cmd_bounded)

    p = sub.add_parser("periodic", help="periodic solution")
    _add_common(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--substeps", type=int)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("check", help="inequality tables")
    _add_common(p)
    p.add_argument("--mu", type=float)
    p.add_argument("--l", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--L", type=float)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reduce", help="box-diagonal reduction summary")
    _add_common(p)
    p.add_argument("--pairs", type=int, default=12)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    _add_common(p, system=False)
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.set_defaults(func=cmd_verify)

    return ap


def run(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except EpcagError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
