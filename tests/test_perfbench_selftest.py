"""The benchmark's own self-test, run as part of the suite.

perfbench wraps library functions by name and calls them with fixed
signatures, so a change to either can break it; running its self-test
(about a second) here makes such a break fail the suite rather than only
the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # -B: write no bytecode into the benchmark's directory
    proc = subprocess.run([sys.executable, "-B", "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
