"""Smoke test of the benchmark itself:

    python3 -m pytest bench/test_smoke.py

Runs ``run.py --smoke``: every workload at toy size, untraced and traced.
It fails unless every metric named in BENCHMARK.json is printed with its
unit and no op failed its check.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_mode():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("0 failed") == 6, proc.stdout
