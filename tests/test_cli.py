import json
import time
import tracemalloc
from collections import Counter

import pytest

from hookalex import rmatrix
from hookalex.braid import BraidError, BraidWord, NotAKnotError, parse_braid
from hookalex.cli import (DEFAULT_TABLE_BRAIDS, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE,
                          MAX_TABLE_HOOK_SIZE, main, parse_table_braids)
from hookalex.evaluator import alexander
from hookalex.laurent import LaurentPoly
from hookalex.oracle import burau_alexander
from hookalex.young import MAX_HOOK_SIZE, Hook

from conftest import run_hookalex


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_runs_as_a_command_with_its_exit_codes():
    proc = run_hookalex("check-yb", "--strands", "3", "--arm", "0", "--leg", "0")
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[-1] == \
        "PASS  15 of 15 operator identities hold, hook (0,0) strands 3"
    # exit 2 from the command is test_scripts.py's test_empty_sweep_is_usage_error


# -- eval ---------------------------------------------------------------------

def test_eval_text(capsys):
    code, out, _ = run_cli(capsys, "eval", "--strands", "2", "--braid", "1 1 1",
                           "--arm", "0", "--leg", "0")
    assert code == EXIT_OK
    assert out.strip() == "q^2 - 1 + q^-2"


def test_eval_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "eval", "--strands", "2", "--braid", "1 1 1",
                           "--arm", "1", "--leg", "0", "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["braid"] == "1 1 1"
    assert record["strands"] == 2
    assert (record["arm"], record["leg"]) == (1, 0)
    assert record["scaling_check"] is True
    d = record["alexander"]
    assert LaurentPoly(d["min_exp"], d["coeffs"]) == LaurentPoly(-4, (1, 0, 0, 0, -1, 0, 0, 0, 1))


def test_text_and_json_encode_same_polynomial(capsys):
    args = ("--strands", "3", "--braid", "1 -2 1 -2", "--arm", "1", "--leg", "1")
    _, text_out, _ = run_cli(capsys, "eval", *args)
    _, json_out, _ = run_cli(capsys, "eval", *args, "--format", "json")
    d = json.loads(json_out)["alexander"]
    assert text_out.strip() == LaurentPoly(d["min_exp"], d["coeffs"]).to_text()


# -- usage errors ------------------------------------------------------------------

def test_missing_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--strands", "2"])
    assert exc.value.code == EXIT_USAGE


def test_link_closure_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--strands", "3", "--braid", "1 1",
                           "--arm", "0", "--leg", "0")
    assert code == EXIT_USAGE
    assert "--braid" in err and "not a knot" in err


def test_generator_out_of_range_names_flag(capsys):
    code, _, err = run_cli(capsys, "eval", "--strands", "3", "--braid", "3",
                           "--arm", "0", "--leg", "0")
    assert code == EXIT_USAGE
    assert "--braid" in err


def test_malformed_token(capsys):
    code, _, err = run_cli(capsys, "eval", "--strands", "2", "--braid", "1 q",
                           "--arm", "0", "--leg", "0")
    assert code == EXIT_USAGE
    assert "--braid" in err


def test_negative_hook_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--strands", "2", "--braid", "1",
                           "--arm", "-1", "--leg", "0")
    assert code == EXIT_USAGE
    assert "--arm" in err


# -- checks --------------------------------------------------------------------------

def test_check_theorem_passes(capsys):
    code, out, _ = run_cli(capsys, "check-theorem", "--strands", "3",
                           "--braid", "1 -2 1 -2", "--arm", "1", "--leg", "1")
    assert code == EXIT_OK
    assert out.startswith("PASS")


def test_check_theorem_json_evaluates_each_polynomial_once(capsys, monkeypatch):
    from hookalex import evaluator

    calls = []
    original = evaluator.alexander

    def counted(color, b):
        calls.append(color)
        return original(color, b)

    monkeypatch.setattr(evaluator, "alexander", counted)
    code, out, _ = run_cli(capsys, "check-theorem", "--strands", "3", "--braid", "1 -2 1 -2",
                           "--arm", "1", "--leg", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["scaling_check"] is True
    assert len(calls) == 2


def test_check_yb(capsys):
    code, out, _ = run_cli(capsys, "check-yb", "--strands", "3",
                           "--arm", "1", "--leg", "0")
    assert code == EXIT_OK
    *checks, summary = out.splitlines()
    # per vertex: 1 Yang-Baxter check and 4 transposition checks (2 crossings, 2 directions)
    assert Counter(" ".join(line.split()[:2]) for line in checks) == \
        {"ok yb": 3, "ok transpose": 12}
    assert summary == "PASS  15 of 15 operator identities hold, hook (1,0) strands 3"


def test_check_yb_counts_every_identity(capsys):
    m = 5  # per vertex: 3 Yang-Baxter, 3 commutation and 8 transposition checks
    code, out, _ = run_cli(capsys, "check-yb", "--strands", str(m), "--arm", "1", "--leg", "1")
    assert code == EXIT_OK
    *checks, summary = out.splitlines()
    assert Counter(line.split()[1] for line in checks) == \
        {"yb": 3 * m, "commute": 3 * m, "transpose": 8 * m}
    assert summary.startswith("PASS  70 of 70 ")


def test_check_yb_reports_a_failed_transposition(capsys, monkeypatch):
    original = rmatrix.doublet_block

    def flipped(h, n, inverse):  # one doublet sign of hook (1,0) is wrong
        r11, r12, r21, r22 = original(h, n, inverse)
        return (r11, r12, -r21 if h == Hook(1, 0) and n == 2 else r21, r22)

    rmatrix.assemble_R.cache_clear()
    monkeypatch.setattr(rmatrix, "doublet_block", flipped)
    try:
        code, out, _ = run_cli(capsys, "check-yb", "--strands", "3", "--arm", "1", "--leg", "0")
    finally:
        rmatrix.assemble_R.cache_clear()
    assert code == EXIT_CHECK_FAILED
    lines = out.splitlines()
    assert "FAIL transpose i=2 target k=1 inverse=False" in lines
    assert "FAIL transpose i=2 target k=1 inverse=True" in lines
    assert "ok   transpose i=1 target k=1 inverse=False" in lines  # crossing 1 has no doublet
    assert "FAIL yb i=1,2 target k=1 hook (1,0)" in lines  # r12 r21 enters Yang-Baxter too
    assert lines[-1] == "FAIL  12 of 15 operator identities hold, hook (1,0) strands 3"


def test_check_yb_on_too_few_strands_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "check-yb", "--strands", "2", "--arm", "0", "--leg", "0")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: --strands: ")


def test_verify_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify-oracle", "--strands", "3",
                           "--braid", "1 -2 1 -2")
    assert code == EXIT_OK
    assert out.strip().endswith("PASS")


# -- table -------------------------------------------------------------------------------

def test_table_emits_schema_records(capsys):
    code, out, _ = run_cli(capsys, "table", "--braids", "1 1 1@2;1 1@2",
                           "--max-hook-size", "2")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    # the two-crossing link is filtered; 3 hooks of size <= 2 remain
    records = [json.loads(line) for line in lines]
    assert [(r["braid"], r["arm"], r["leg"]) for r in records] == \
        [("1 1 1", 0, 0), ("1 1 1", 1, 0), ("1 1 1", 0, 1)]
    for record in records:
        assert set(record) == {"braid", "strands", "arm", "leg",
                               "alexander", "scaling_check"}
        assert record["scaling_check"] is True


def test_table_default_corpus_order(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-hook-size", "1")
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    knots = [entry.split("@")[0] for entry in DEFAULT_TABLE_BRAIDS
             if entry != "1 1 -2 1 -2@3"]
    assert [r["braid"] for r in lines] == knots


def test_table_bad_entry_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "table", "--braids", "1 1 1")
    assert code == EXIT_USAGE
    assert "--braids" in err


@pytest.mark.parametrize("size", ["0", "-3"])
def test_table_hook_size_below_one_is_usage_error(capsys, size):
    code, out, err = run_cli(capsys, "table", "--braids", "1 1 1@2", "--max-hook-size", size)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: --max-hook-size: ")


@pytest.mark.parametrize("braids", ["1 1@2", "1 1@2;1 1 2 2@3", ""])
def test_table_without_a_knot_is_usage_error(capsys, braids):
    code, out, err = run_cli(capsys, "table", "--braids", braids)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: --braids: ")


_WIDE_KNOT = " ".join(str(g) for g in range(1, 30))  # closes to a knot on 30 strands


@pytest.mark.parametrize("argv", [
    ["eval", "--strands", "30", "--braid", _WIDE_KNOT, "--arm", "0", "--leg", "0"],
    ["check-theorem", "--strands", "30", "--braid", _WIDE_KNOT, "--arm", "1", "--leg", "0"],
    ["verify-oracle", "--strands", "30", "--braid", _WIDE_KNOT],
    ["table", "--braids", f"{_WIDE_KNOT}@30"],
    ["check-yb", "--strands", "30", "--arm", "0", "--leg", "0"],
    ["eval", "--strands", "11", "--braid", "1 2 3 4 5 6 7 8 9 10", "--arm", "0", "--leg", "0"],
    ["check-yb", "--strands", "11", "--arm", "0", "--leg", "0"],
])
def test_oversized_strand_count_is_usage_error(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    flag = "--braids" if argv[0] == "table" else "--strands"  # every error names its flag
    assert err.startswith(f"usage error: {flag}: ") and "path basis" in err
    assert "strands is above the limit of 10: " in err


@pytest.mark.parametrize("argv,flag", [
    (["eval", "--strands", "3", "--braid", "1 -2 1 -2", "--arm", "10000000", "--leg", "0"],
     "--arm/--leg"),
    (["eval", "--strands", "2", "--braid", "1 1 1", "--arm", "0", "--leg", str(MAX_HOOK_SIZE)],
     "--arm/--leg"),
    (["check-theorem", "--strands", "3", "--braid", "1 -2 1 -2", "--arm", "5000000",
      "--leg", "5000000"], "--arm/--leg"),
    (["check-yb", "--strands", "3", "--arm", "10000000", "--leg", "0"], "--arm/--leg"),
    (["table", "--max-hook-size", "10000000"], "--max-hook-size"),
    (["table", "--braids", "1 1 1@2", "--max-hook-size", str(MAX_HOOK_SIZE + 1)],
     "--max-hook-size"),
])
def test_oversized_hook_is_usage_error(capsys, argv, flag):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"usage error: {flag}: hook size ")
    assert f"above the limit of {MAX_HOOK_SIZE}" in err


_LONG = "7" * 100_000  # one malformed 100 KB argument
_LINK = " ".join(["1"] * 1000)  # a 1,000-letter braid whose closure is a link


@pytest.mark.parametrize("argv", [
    ["eval", "--strands", "2", "--braid", f"1 x{_LONG}", "--arm", "0", "--leg", "0"],
    ["eval", "--strands", "2", "--braid", _LINK, "--arm", "0", "--leg", "0"],
    ["verify-oracle", "--strands", "2", "--braid", _LINK],
    ["table", "--braids", f"1 1 1@2;{_LONG}"],
    ["table", "--braids", f"1 1 1@2;1 1 1@x{_LONG}"],
    ["table", "--braids", f"1 1 1@2;1 x{_LONG}@2"],
])
def test_usage_errors_quote_a_bounded_excerpt(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error: ") and len(err) < 300
    assert "characters)" in err  # the excerpt names the length it cut


@pytest.mark.parametrize("evaluate", [lambda b: alexander(Hook(0, 0), b), burau_alexander])
def test_not_a_knot_message_is_bounded(evaluate):
    # a letter of 4,401 digits is past Python's limit on converting ints to strings
    for b, cut in ((parse_braid(_LINK, 2), "(1999 characters)"),
                   (BraidWord(10 ** 5000, (10 ** 4400,)), "(4401 digits)")):
        with pytest.raises(NotAKnotError) as exc:
            evaluate(b)
        assert len(str(exc.value)) < 300 and cut in str(exc.value)


@pytest.mark.parametrize("evaluate", [lambda b: alexander(Hook(0, 0), b), burau_alexander])
def test_a_short_braid_on_many_strands_is_refused_at_once(evaluate):
    # fewer letters than strands - 1 cannot close to one cycle, so no slot per
    # strand is allocated; checked on the memory at 10**6 strands first, so
    # that a version allocating them fails there and not at 10**9
    tracemalloc.start()
    try:
        with pytest.raises(NotAKnotError):
            evaluate(parse_braid("1 2 3", 10 ** 6))
        assert tracemalloc.get_traced_memory()[1] < 10 ** 6
    finally:
        tracemalloc.stop()
    start = time.perf_counter()
    with pytest.raises(NotAKnotError, match="on 1000000000 strands"):
        evaluate(parse_braid("1 2 3", 10 ** 9))
    assert time.perf_counter() - start < 1.0


_HUGE = "9" * 4000  # a 4,000-digit integer, below Python's limit on parsing one
_VALID_ARGV = [
    ["eval", "--strands", "3", "--braid", "1 -2 1 -2", "--arm", "1", "--leg", "0",
     "--format", "json"],
    ["check-theorem", "--strands", "3", "--braid", "1 -2 1 -2", "--arm", "1", "--leg", "0",
     "--format", "text"],
    ["check-yb", "--strands", "3", "--arm", "0", "--leg", "0"],
    ["table", "--braids", "1 1 1@2", "--max-hook-size", "1"],
    ["verify-oracle", "--strands", "3", "--braid", "1 -2 1 -2"],
]


def _oversized_argvs():
    for argv in _VALID_ARGV:
        for i in range(0, len(argv), 2):  # the command, then each flag's value
            for value in ("x" * 100_000, _HUGE, f"-{_HUGE}"):
                name = argv[i - 1] if i else "command"
                yield pytest.param(argv[:i] + [value] + argv[i + 1:],
                                   id=f"{argv[0]}-{name}-{value[:2]}")
    for entry in (f"1 1 1@{_HUGE}", f"1 1 1@-{_HUGE}", f"1 {_HUGE}@2"):
        yield pytest.param(["table", "--braids", entry], id=f"table-entry-{entry[:8]}")


@pytest.mark.parametrize("argv", _oversized_argvs())
def test_every_usage_error_is_bounded(capsys, argv):
    # argparse's own errors and every message quoting an integer from the input
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the argument itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("usage error: ") and len(captured.err) < 300


def test_table_refuses_a_sweep_above_its_size_limit_before_any_record(capsys, monkeypatch):
    # the sweep has S(S+1)/2 hooks per knot, so its size is bounded before it starts
    def check_scaling(color, b):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("hookalex.cli.check_scaling", check_scaling)
    assert MAX_TABLE_HOOK_SIZE >= 6  # the full sweep of the default corpus stays accepted
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "--max-hook-size", str(MAX_TABLE_HOOK_SIZE + 1))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage error: --max-hook-size: ") and len(err) < 300
    assert f"above the limit of {MAX_TABLE_HOOK_SIZE}" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--arm", "0", "--leg", "0"],
    ["check-theorem", "--arm", "1", "--leg", "0"],
    ["verify-oracle"],
])
def test_huge_strand_count_is_refused_before_the_closure_check(capsys, monkeypatch, argv):
    # the closure check allocates one slot per strand, so it must never see this count
    def closure_is_knot(b):
        raise AssertionError("closure check ran before the strand limit")

    monkeypatch.setattr("hookalex.cli.closure_is_knot", closure_is_knot)
    code, out, err = run_cli(capsys, *argv, "--strands", str(10 ** 9),
                             "--braid", "1 2 3 4 5 6 7 8 9 10")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"usage error: --strands: {10 ** 9} strands is above the limit of 10")
    assert len(err) < 300


def test_table_refuses_an_entry_above_the_strand_limit_before_any_record(capsys):
    code, out, err = run_cli(capsys, "table", "--braids", "1 1 1@2;1 2 3 4 5 6 7 8 9 10@11",
                             "--max-hook-size", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "--braids: 11 strands is above the limit of 10" in err


@pytest.mark.parametrize("entry", ["1 1 1", "1 1 1@two", "1 q@2", "3@2"])
def test_malformed_table_entry_raises_braid_error(entry):
    with pytest.raises(BraidError, match="--braids"):
        parse_table_braids(("1 1 1@2", entry))


def test_internal_inconsistency_exit_code(capsys, monkeypatch):
    from hookalex import cli
    from hookalex.laurent import InexactDivisionError

    def boom(color, b):
        raise InexactDivisionError("trace sum did not divide out")

    monkeypatch.setattr(cli, "alexander", boom)
    code = main(["eval", "--strands", "2", "--braid", "1 1 1",
                 "--arm", "0", "--leg", "0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "internal inconsistency" in err


def test_check_theorem_fail_branch(capsys, monkeypatch):
    # sanity-check the failure rendering path via a doctored report
    from hookalex import cli
    from hookalex.braid import parse_braid
    from hookalex.evaluator import ScalingReport
    from hookalex.young import Hook

    braid = parse_braid("1 1 1", 2)
    fake = ScalingReport(Hook(1, 0), braid, LaurentPoly.one(),
                         LaurentPoly(-2, (1, 0, -1, 0, 1)), False)
    monkeypatch.setattr(cli, "check_scaling", lambda color, b: fake)
    code = main(["check-theorem", "--strands", "2", "--braid", "1 1 1",
                 "--arm", "1", "--leg", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED
    assert "FAIL" in out and "diff" in out
