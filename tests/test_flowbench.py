"""The benchmark's self-test as a tier-1 test.

`flowbench/run.py --selftest` runs every workload briefly and checks
that each result check rejects a corrupted result.  Running it here
means that a library change breaking one of the benchmark's checks
fails the test suite, not a later benchmark run.  It writes only under
`flowbench/out/`.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_selftest_passes():
    out = subprocess.run(
        [sys.executable, os.path.join("flowbench", "run.py"), "--selftest"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "selftest: ok" in out.stdout.splitlines(), out.stdout
