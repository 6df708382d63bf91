"""Run one benchmark workload of epcag_lab and print its metrics.

    python3 perfbench/run.py --workload backward --seed 1 --seconds 24 --trace 0

Builds the workload's systems, runs one discarded warm-up operation,
then runs whole rounds until --seconds have passed, each on inputs drawn
afresh from a generator seeded by --seed, checking every output.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1 (whose spans are written to perfbench/out/).  Times
are scaled to a reference machine speed (see calibrate.py); the unscaled
figures go to standard error.

The library is imported from the ``src`` directory next to this one; the
run stops with exit code 2, printing no result, when it is missing.
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("backward", "manifold", "steady", "flow")
END_TO_END = {"setup_s": "s", "round_s": "s", "round_cpu_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_rounds(new_round, seconds):
    """Whole rounds, each the operations ``new_round()`` returns, until
    ``seconds`` have passed.

    Returns (rounds, attempted, failed, correct).  Each round records its
    wall span, the summed operation times ``wall`` and ``cpu``, and the
    same scaled to the reference speed, ``wall_ref`` and ``cpu_ref``, by
    the reference kernel run between consecutive operations.
    """
    import calibrate
    import checks
    from epcag_lab.errors import EpcagError

    attempted = failed = 0
    correct = True
    reported = set()
    rounds = []
    cal_before = calibrate.kernel_time()
    t_begin = time.perf_counter()
    while True:
        ops = new_round()  # fresh inputs, drawn outside the timed operations
        rnd = dict(start=time.perf_counter(), wall=0.0, cpu=0.0, wall_ref=0.0, cpu_ref=0.0)
        for name, op in ops:
            attempted += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                op()
                error = None
            except (checks.CheckFailed, EpcagError) as exc:
                error = exc
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            cal_after = calibrate.kernel_time()
            rnd["wall"] += wall
            rnd["cpu"] += cpu
            for key, value, k in (("wall_ref", wall, 0), ("cpu_ref", cpu, 1)):
                rnd[key] += value * calibrate.REFERENCE_S / (0.5 * (cal_before[k] + cal_after[k]))
            cal_before = cal_after
            if isinstance(error, checks.CheckFailed):
                print(f"{name}: wrong output: {error}", file=sys.stderr)
                correct = False
            elif error is not None:
                failed += 1
                if name not in reported:
                    reported.add(name)
                    print(f"{name}: failed: {type(error).__name__}: {error}", file=sys.stderr)
        rnd["end"] = time.perf_counter()
        rounds.append(rnd)
        if time.perf_counter() - t_begin >= seconds:
            return rounds, attempted, failed, correct


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "epcag_lab" / "__init__.py").is_file():
        print(f"error: no epcag_lab sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: the figures measure the program, not the scheduler
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    import calibrate  # imports numpy

    setup = calibrate.SetupClock(T_START)
    setup.lap()
    import epcag_lab

    if Path(epcag_lab.__file__).resolve().parent != SRC / "epcag_lab":
        print(f"error: epcag_lab imported from {epcag_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import checks
    import workloads

    setup.lap()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.build(args.workload, args.seed,
                         tracer.wrap_spec if tracer else (lambda spec: spec))
    setup.lap()
    warmup_ok = True
    try:
        wl.warmup()
    except checks.CheckFailed as exc:
        print(f"warm-up: wrong output: {exc}", file=sys.stderr)
        warmup_ok = False
    setup.lap()
    if tracer:
        tracer.reset()
    wl.stats.clear()
    rounds, attempted, failed, correct = run_rounds(wl.new_round, args.seconds)

    def median_of(key):
        return statistics.median(r[key] for r in rounds)

    if tracer:
        tracer.uninstall()
        metrics = tracer.metrics(rounds, wl.stats)
        tracer.write(HERE / "out" / f"trace-{args.workload}.npz", rounds)
    else:
        values = {
            "setup_s": setup.scaled,
            "round_s": median_of("wall_ref"),
            "round_cpu_s": median_of("cpu_ref"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds of {attempted // len(rounds)} "
          f"operations; unscaled: set-up {setup.wall:.4g} s, round medians wall "
          f"{median_of('wall'):.4g} s, cpu {median_of('cpu'):.4g} s", file=sys.stderr)
    print(json.dumps({
        "correct": correct and warmup_ok, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
