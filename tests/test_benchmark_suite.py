"""The benchmark's own tests, run as part of this suite.

``perfbench/tests`` and ``tests`` each have a top-level ``conftest`` that
their tests import by name, so one pytest process cannot collect both.  The
benchmark's suite therefore runs in a subprocess of its own.  It guards the
contracts the benchmark relies on, such as every operation's spans adding up
to its root span on workloads whose inputs have only end vertices.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_suite_passes():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
