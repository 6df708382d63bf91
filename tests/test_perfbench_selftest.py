"""The benchmark's own self-test, and one short run of each workload,
as part of the suite.

perfbench wraps library functions by name and calls them with fixed
signatures, so a change to either can break it; running its self-test
(about a second) here makes such a break fail the suite rather than only
the benchmark.  The self-test builds rounds but does not run their
operations, so each workload also runs for a moment: a library argument
that a workload passes and the library no longer takes fails here.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from epcag_lab import _quadrature, integrate

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # -B: write no bytecode into the benchmark's directory
    proc = subprocess.run([sys.executable, "-B", "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["backward", "manifold", "steady", "flow"])
def test_perfbench_workload_runs_correctly(workload):
    proc = subprocess.run([sys.executable, "-B", "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0.1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr


@pytest.mark.parametrize("function, name, position", [
    (integrate.rk4_final, "y0", 2),
    (_quadrature.accumulate_forward, "mesh", 3),
    (_quadrature.accumulate_backward, "mesh", 3),
], ids=["rk4_final", "accumulate_forward", "accumulate_backward"])
def test_traced_arguments_keep_their_positions(function, name, position):
    # perfbench/tracer.py reads these arguments by position when they are
    # passed positionally; a moved one would count the wrong argument's
    # rows or points without any error
    assert list(inspect.signature(function).parameters).index(name) == position
