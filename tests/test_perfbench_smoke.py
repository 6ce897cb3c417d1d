"""The benchmark's own smoke check, run as part of the test suite.

perfbench/smoke.py drives every benchmark workload at a tiny horizon, traced
and untraced, and fails if a layer the benchmark wraps by name (network
functions, policy select/update, the DesignMatrix methods) stops being called.
Running it here makes a refactor that renames or bypasses such a layer fail
the tests rather than the benchmark.  smoke.py skips its self-time check on a
traced run whose spans come from more than one thread; repetitions run on one
thread, so no workload may be skipped.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    skipped = [line for line in proc.stdout.splitlines() if line.startswith("skip ")]
    assert not skipped, proc.stdout
