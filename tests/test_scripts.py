"""The two sweeps, run end to end as commands: `table` is the scaling sweep and
`check-yb` the operator-identity sweep. Each refuses a sweep that would check
nothing or exceed the strand limit. The case ids keep the names of the sweep
files that these commands replaced."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_hookalex(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hookalex.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("argv,flag", [
    pytest.param(["table", "--max-hook-size", "0"], "--max-hook-size",
                 id="scaling_sweep.py-argv0---max-hook-size"),
    pytest.param(["table", "--max-hook-size", "-2"], "--max-hook-size",
                 id="scaling_sweep.py-argv1---max-hook-size"),
    pytest.param(["table", "--braids", "1 1@2"], "--braids",
                 id="scaling_sweep.py-argv2---braids"),
])
def test_empty_sweep_is_usage_error(argv, flag):
    proc = run_hookalex(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"usage error: {flag}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,flag", [
    pytest.param(["table", "--max-hook-size", "1", "--braids", "1 2 3 4 5 6 7 8 9 10@11"],
                 "--braids", id="scaling_sweep.py-argv0---braids"),
    pytest.param(["table", "--max-hook-size", "1", "--braids",
                  "1 1 1@2;1 2 3 4 5 6 7 8 9 10@11"],
                 "--braids", id="scaling_sweep.py-argv1---braids"),
    pytest.param(["check-yb", "--strands", "11", "--arm", "0", "--leg", "0"],
                 "--strands", id="yb_sweep.py-argv2---max-strands"),
])
def test_sweep_above_strand_limit_is_usage_error(argv, flag):
    proc = run_hookalex(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"{flag}: 11 strands is above the limit of 10" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_smallest_sweeps_run():
    proc = run_hookalex("check-yb", "--strands", "3", "--arm", "0", "--leg", "0")
    # 3 Yang-Baxter checks, and 12 transposition checks (3 vertices, 2 crossings, 2 directions)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == \
        "PASS  15 of 15 operator identities hold, hook (0,0) strands 3"
    proc = run_hookalex("table", "--max-hook-size", "1", "--braids", "1 1 1@2")
    assert proc.returncode == 0
    [record] = [json.loads(line) for line in proc.stdout.splitlines()]
    assert (record["braid"], record["arm"], record["leg"]) == ("1 1 1", 0, 0)
    assert record["scaling_check"] is True
