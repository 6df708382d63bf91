"""Run two sets of benchmark runs and report each metric's spread against its bound.

    python3 perfbench/spread.py     # 2 sets x 10 seeds x every workload, seeds 1-80

Every run is ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
in its own process, one after another, each with another seed: the first
set takes seeds 1-40, the second 41-80.  For each end-to-end metric the
report gives, per set, the median and the interquartile range as a share
of the median (``statistics.quantiles``, n=4) next to the metric's bound,
and how much worse the second set's median is than the first's.  It also
compares the share of failed operations between the sets.  It exits 1
when a spread or a worsening exceeds its bound, an output is wrong, or
the failed shares differ.  The runs are kept in perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10  # per workload and set


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    """Median, and the interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]

    results = {}  # workload -> list of sets -> list of run results
    seed = 1
    for s in range(SETS):
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for _ in range(RUNS):
                res = run_once(workload, seed, bench["run_seconds"])
                res["seed"] = seed
                runs.append(res)
                seed += 1
                print(f"set {s + 1} {workload} seed {res['seed']}: correct={res['correct']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      file=sys.stderr)
            results.setdefault(workload, []).append(runs)

    ok = True
    print(f"{'workload':9} {'metric':13} {'bound':>6} " + " ".join(
        f"{'set' + str(i + 1) + ' median':>13} {'IQR/med':>8}" for i in range(SETS))
        + "  later median worse by")
    for workload, sets in results.items():
        shares = {run["failed"] / run["attempted"] for runs in sets for run in runs}
        correct = all(run["correct"] for runs in sets for run in runs)
        ok &= correct and len(shares) == 1
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            cols, medians = [], []
            for runs in sets:
                med, spread = summarize([run["metrics"][name]["value"] for run in runs])
                medians.append(med)
                cols.append(f"{med:13.5g} {spread:8.3f}")
                ok &= spread <= bound
            worse = [sign * (b - a) / a for a, b in zip(medians, medians[1:])]
            ok &= all(w <= bound for w in worse)
            print(f"{workload:9} {name:13} {bound:6.2f} " + " ".join(cols) + "  "
                  + " ".join(f"{w:+.3f}" for w in worse))
        print(f"{workload:9} correct={correct} failed shares={sorted(shares)}")
    out = HERE / "out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"{'within' if ok else 'OUTSIDE'} the bounds; runs written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
