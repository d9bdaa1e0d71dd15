"""Tests of the benchmark itself: corpus, expected answers, checks and tracing.

    python -m pytest perfbench/tests
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hookalex
import hookalex.cli
import run
import tracing
from corpus import (MAX_ATTEMPTS, WORKLOADS, CorpusError, Entry, is_knot, pool, random_knot_braid,
                    schedule, torus_entry)
from expected import digest, substitute_power, torus_alexander
from hookalex import Hook, alexander, burau_alexander, parse_braid
from hookalex.laurent import LaurentPoly

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Tiny corpora: a few small knots per workload, fast enough for a unit test.
TINY = {
    "fund-wide": [Entry(3, (1, -2, 1, -2)), Entry(4, (1, 2, -3, 2, -1, 3, 2))],
    "colored-scaling": [Entry(2, (1, 1, 1)), Entry(3, (1, 1, 1, 2, -1, 2))],
    "long-braid": [torus_entry(2, 5), Entry(3, (1, -2, 1, -2, 1, 1))],
}


def tiny_reference(workload):
    hooks = {"fund-wide": [(0, 0)],
             "colored-scaling": run.hooks_up_to(run.COLORED_MAX_HOOK_SIZE),
             "long-braid": list(run.LONG_BRAID_HOOKS)}[workload]
    return {e.key: {run.hook_key(a, l): digest(
                alexander(Hook(a, l), parse_braid(e.text, e.strands)).polynomial.to_json_dict())
                for a, l in hooks}
            for e in TINY[workload]}


def tiny_work(workload, reference=None):
    work = run.WORKLOAD_CLASSES[workload](hookalex, reference or tiny_reference(workload))
    return work, [(e, work.prepare(e)) for e in TINY[workload]]


# -- corpus -----------------------------------------------------------------------


@pytest.mark.parametrize("strands,length", [(4, 20), (5, 15), (3, 9), (2, 2), (6, 3)])
def test_generator_refuses_impossible_lengths_at_once(strands, length):
    with pytest.raises(CorpusError):
        random_knot_braid(random.Random(0), strands, length)


def test_generator_gives_up_after_its_attempt_cap():
    class Stuck(random.Random):
        def choice(self, seq):
            return seq[0]

    with pytest.raises(CorpusError, match=f"no knot among {MAX_ATTEMPTS} "):
        random_knot_braid(Stuck(0), 3, 4)


def test_generator_returns_knots_for_every_parity_correct_length():
    rng = random.Random(5)
    for strands in range(2, 8):
        for length in range(strands - 1, strands + 12, 2):
            letters = random_knot_braid(rng, strands, length)
            assert len(letters) == length and is_knot(strands, letters)
            assert all(1 <= abs(g) < strands for g in letters)


def test_schedule_is_a_function_of_the_seed_and_covers_the_pool():
    for workload in WORKLOADS:
        entries = {e for stratum in pool(workload) for e in stratum}
        first = schedule(workload, 7)
        assert first == schedule(workload, 7)
        assert first != schedule(workload, 8)
        assert set(first) == entries


def test_schedule_keeps_the_strata_mix_in_every_prefix():
    strata = pool("long-braid")
    where = {e: i for i, stratum in enumerate(strata) for e in stratum}
    order = [where[e] for e in schedule("long-braid", 3)]
    total = len(order)
    for n in range(1, total + 1):
        for i, stratum in enumerate(strata):
            assert abs(order[:n].count(i) - n * len(stratum) / total) <= 1


def test_reference_covers_every_pool_braid_and_hook():
    reference = json.loads(run.REFERENCE.read_text())["workloads"]
    for workload in WORKLOADS:
        keys = {e.key for stratum in pool(workload) for e in stratum}
        assert set(reference[workload]) == keys
    assert all(len(v) == 6 for v in reference["colored-scaling"].values())
    assert all(len(v) == 2 for v in reference["long-braid"].values())


# -- expected answers ---------------------------------------------------------------

TORUS = [(2, 7), (2, 31), *[(3, r) for r in range(4, 32) if r % 3], (4, 5), (4, 11), (5, 6)]


@pytest.mark.parametrize("p,r", TORUS)
def test_torus_closed_form_matches_engine_and_burau(p, r):
    e = torus_entry(p, r)
    b = parse_braid(e.text, e.strands)
    want = torus_alexander(p, r)
    assert burau_alexander(b).to_json_dict() == want
    assert alexander(Hook(0, 0), b).polynomial.to_json_dict() == want


def test_torus_closed_form_scales_with_the_hook_size():
    b = parse_braid(torus_entry(3, 4).text, 3)
    assert alexander(Hook(1, 1), b).polynomial.to_json_dict() == \
        substitute_power(torus_alexander(3, 4), 3)


def test_torus_entry_refuses_links():
    with pytest.raises(CorpusError):
        torus_entry(3, 6)


# -- checks and metrics ---------------------------------------------------------------


def test_tiny_corpus_prints_every_named_metric_with_its_unit():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        work, inputs = tiny_work(workload)
        plain = run.measure(work, inputs, 0.05)
        run.check(work, plain)
        plain["peak_rss_mb"] = 1.0
        setups = [{"setup_wall_s": w, "setup_cal": 100 * w} for w in (0.1, 0.2, 0.3)]
        metrics, lines = run.end_to_end(plain, setups)
        assert metrics["setup_s"]["value"] == pytest.approx(20 * run.CAL_SECONDS)
        traced, _ = run.measure_traced(work, inputs, 0.05)
        run.check(work, traced)
        layer_metrics, layer_lines = run.per_layer(plain, traced)
        assert plain["failed"] == traced["failed"] == 0, plain["problems"] + traced["problems"]
        for got, want, text in ((metrics, e2e, lines), (layer_metrics, layers, layer_lines)):
            assert {k: v["unit"] for k, v in got.items()} == want
            for name, unit in want.items():
                assert any(line.split()[:1] == [name] and f" {unit}" in line for line in text)
                assert math.isfinite(got[name]["value"])
        for name in ("setup_wall_s", "throughput_ops_s", "latency_p50_ms", "latency_tail_ms",
                     "fail_ratio"):
            assert any(line.split()[:1] == [name] for line in lines)


def test_operation_times_are_taken_over_the_calibration_loops_around_them():
    run_result = {"latencies_s": [2.0, 4.0, 1.0], "cal_s": [1.0, 1.0, 3.0, 1.0]}
    assert run.in_cal(run_result) == [2.0, 2.0, 0.5]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_entry_makes_fail_ratio_positive(workload):
    reference = tiny_reference(workload)
    key = TINY[workload][0].key
    hook = sorted(reference[key])[-1]
    reference[key][hook] = "0" * 32
    work, inputs = tiny_work(workload, reference)
    result = run.measure(work, inputs, 0.05)
    run.check(work, result)
    result["peak_rss_mb"] = 1.0
    assert result["failed"] >= 1
    assert any("differs from the reference" in p for p in result["problems"])
    _, lines = run.end_to_end(result, [{"setup_wall_s": 0.1, "setup_cal": 100.0}])
    ratio = next(line for line in lines if line.startswith("fail_ratio")).split()[1]
    assert float(ratio) > 0


def test_failing_independent_check_counts_as_failure():
    work, inputs = tiny_work("long-braid")
    entry, braid = inputs[0]
    good = work.op(entry, braid)
    bad = [good[0], good[1] * LaurentPoly.monomial(1, 2)]
    assert work.check(entry, braid, good) == []
    assert any("scaling identity" in p for p in work.check(entry, braid, bad))


def test_raising_operation_counts_as_failure():
    work, inputs = tiny_work("fund-wide")
    inputs = [(Entry(2, (1, 1)), parse_braid("1 1", 2))]  # a link: alexander raises
    result = run.measure(work, inputs, 0.0)
    run.check(work, result)
    assert result["ops"] == result["failed"] == 1
    assert "NotAKnotError" in result["problems"][0]


# -- tracing ----------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_account_for_each_operation_span(workload):
    work, inputs = tiny_work(workload)
    result, tracer = run.measure_traced(work, inputs, 0.05)
    selfs = tracer.self_times()
    durs = tracer.durations()
    names = [tracer.names[n] for n in tracer.name]
    roots = [i for i, n in enumerate(names) if n == tracing.ROOT_SPAN]
    assert len(roots) == result["ops"]
    for root in roots:
        op = tracer.op[root]
        members = [i for i in range(len(names)) if tracer.op[i] == op]
        assert {names[i] for i in members} >= {"evaluator.alexander", "rmatrix.numerator_rows"}
        assert math.isclose(sum(selfs[i] for i in members), durs[root],
                            rel_tol=1e-9, abs_tol=1e-12)
        assert min(selfs[i] for i in members) > -1e-9


def test_tracing_is_removed_after_the_traced_run():
    originals = (hookalex.alexander, hookalex.evaluator.trace_product,
                 hookalex.rmatrix.exact_div, hookalex.cli.run,
                 hookalex.rmatrix.BlockOperator.numerator_rows, LaurentPoly.__mul__)
    work, inputs = tiny_work("colored-scaling")
    run.measure_traced(work, inputs, 0.0)
    assert (hookalex.alexander, hookalex.evaluator.trace_product,
            hookalex.rmatrix.exact_div, hookalex.cli.run,
            hookalex.rmatrix.BlockOperator.numerator_rows, LaurentPoly.__mul__) == originals


def test_colored_scaling_calls_alexander_twice_per_record():
    work, inputs = tiny_work("colored-scaling")
    result, _ = run.measure_traced(work, inputs, 0.05)
    records = len(run.hooks_up_to(run.COLORED_MAX_HOOK_SIZE))
    assert result["layers"]["evaluator.alexander.calls_per_op"] == 2 * records
    assert result["layers"]["cli.run.self_s"] > 0


def test_spans_are_written_out(tmp_path):
    work, inputs = tiny_work("fund-wide")
    _, tracer = run.measure_traced(work, inputs, 0.0)
    path = tmp_path / "spans.tsv.gz"
    tracer.write(path)
    import gzip

    with gzip.open(path, "rt") as fh:
        rows = fh.read().splitlines()
    assert rows[0].split("\t") == ["op", "span", "parent", "name", "start_s", "end_s"]
    assert len(rows) == len(tracer.start) + 1


# -- the command ---------------------------------------------------------------------------


def test_command_prints_one_result_line():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "long-braid",
                           "--seed", "3", "--seconds", "0.5", "--trace", "1"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_command_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "fund-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
