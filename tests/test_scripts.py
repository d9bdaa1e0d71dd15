"""The two sweeps, run end to end as commands: `table` is the scaling sweep and
`check-yb` the operator-identity sweep. Each refuses a sweep that would check
nothing or exceed the strand limit. The case ids keep the names of the sweep
files that these commands replaced."""

import pytest

from conftest import run_hookalex


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
