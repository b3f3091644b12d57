"""The benchmark's self-test (l2bench/selftest.py) runs real ops of every
workload and judges them with the benchmark's own checks, so a change whose
outputs the benchmark would reject fails here first. It writes only under
the ignored l2bench/out/."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "l2bench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ", 0 failures" in proc.stdout
