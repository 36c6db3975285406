"""The benchmark's self-test runs on the current code.

``perfbench/selfcheck.py`` installs the benchmark's tracer, which wraps
library functions and methods by name, so a rename or move of one of them
shows up here as well as in a traced benchmark run.
"""
import subprocess
import sys
from pathlib import Path

from conftest import SUBPROCESS_ENV

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, env=SUBPROCESS_ENV,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selfcheck: ok", proc.stdout
