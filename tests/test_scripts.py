"""The sweep scripts refuse sweeps that would check nothing or exceed the strand limit."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hookalex import rmatrix
from hookalex.young import Hook

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("name,argv,flag", [
    ("scaling_sweep.py", ["--max-hook-size", "0"], "--max-hook-size"),
    ("scaling_sweep.py", ["--max-hook-size", "-2"], "--max-hook-size"),
    ("scaling_sweep.py", ["--braids", "1 1@2"], "--braids"),
    ("yb_sweep.py", ["--max-hook-size", "0"], "--max-hook-size"),
    ("yb_sweep.py", ["--max-strands", "2"], "--max-strands"),
])
def test_empty_sweep_is_usage_error(name, argv, flag):
    proc = run_script(name, *argv)
    assert proc.returncode == 2
    assert "checked" not in proc.stdout and "all equal" not in proc.stdout
    assert flag in proc.stderr


@pytest.mark.parametrize("name,argv,flag", [
    ("scaling_sweep.py", ["--max-hook-size", "1", "--braids", "1 2 3 4 5 6 7 8 9 10@11"],
     "--braids"),
    ("scaling_sweep.py", ["--max-hook-size", "1", "--braids", "1 1 1@2;1 2 3 4 5 6 7 8 9 10@11"],
     "--braids"),
    ("yb_sweep.py", ["--max-strands", "11"], "--max-strands"),
])
def test_sweep_above_strand_limit_is_usage_error(name, argv, flag):
    proc = run_script(name, *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"{flag}: 11 strands is above the limit of 10" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_smallest_sweeps_run():
    proc = run_script("yb_sweep.py", "--max-hook-size", "1", "--max-strands", "3")
    # 3 Yang-Baxter checks, and 12 transposition checks (3 vertices, 2 crossings, 2 directions)
    assert proc.returncode == 0 and "15 identities checked" in proc.stdout
    proc = run_script("scaling_sweep.py", "--max-hook-size", "1", "--braids", "1 1 1@2")
    assert proc.returncode == 0 and "all equal (1 knots x 1 hooks)" in proc.stdout


def test_yb_sweep_reports_a_failed_transposition(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("yb_sweep", ROOT / "scripts" / "yb_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    original = rmatrix.doublet_block

    def flipped(h, n, inverse):  # one doublet sign of hook (1,0) is wrong
        r11, r12, r21, r22 = original(h, n, inverse)
        return (r11, r12, -r21 if h == Hook(1, 0) and n == 2 else r21, r22)

    rmatrix.assemble_R.cache_clear()
    monkeypatch.setattr(rmatrix, "doublet_block", flipped)
    monkeypatch.setattr(sys, "argv", ["yb_sweep.py", "--max-hook-size", "2", "--max-strands", "3"])
    try:
        assert sweep.main() == 1
    finally:
        rmatrix.assemble_R.cache_clear()
    out = capsys.readouterr().out
    assert "FAIL transpose hook (1,0) m=3 k=1 i=2 inverse=False" in out
    assert "FAIL transpose hook (0,1) m=3 k=1 i=2 inverse=False" in out
    assert " 0 failures" not in out
