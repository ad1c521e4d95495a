"""The benchmark's self-check passes: traced per-layer counts repeat
exactly across two runs of every workload, and a wrong expected label is
caught.  A change that makes a count depend on set or hash order fails
here.  The script writes only the ignored ``.perfbench/`` span tables."""

import subprocess
import sys
from pathlib import Path

SELFCHECK = Path(__file__).resolve().parents[1] / "perfbench" / "selfcheck.py"


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(SELFCHECK)], cwd=SELFCHECK.parents[1],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
