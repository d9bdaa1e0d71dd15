#!/usr/bin/env python3
"""Benchmark of hookalex: seeded workloads, exact output checks, per-layer split.

    python3 perfbench/run.py --workload fund-wide --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it evaluates the sources under ``src/``.
Each workload runs as one closed loop, one caller and one thread, in a
worker process of its own.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` gives half of the time to an untraced worker and half to a
traced one, and prints the per-layer metrics plus the traced/untraced
throughput ratio.  A table for people comes first, with the wall-clock
figures; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operation times in
the JSON are in units of a calibration loop timed around each operation (see
``calibration_loop``), which cancels most of a shared host's speed swings.

An operation fails if it raises, if the CLI exits non-zero, if a polynomial
differs from ``reference.json`` (generated from this repository by
``make_reference.py``), or if an independent check rejects it: the Burau
oracle, the torus-knot closed form or the scaling identity.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from corpus import schedule
from expected import digest, substitute_power, torus_alexander

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPAN_DIR = HERE / "out"

# Set-up-only workers run before and after the measuring worker, so that the
# median set-up time samples the host at both ends of the run.
SETUPS_BEFORE = SETUPS_AFTER = 6
CHILD_GRACE_S = 60

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_per_kcal": "1/kcal",
    "latency_p50_cal": "cal",
    "latency_tail_cal": "cal",
    "peak_rss_mb": "MB",
}

# The calibration loop: a fixed integer convolution in plain Python, timed on
# the measuring thread before the first operation and after each one.  On a
# shared host, CPU-bound code runs at anything from 1x to 2x its best speed
# for seconds to minutes at a time, and that swing is not steal time, so CPU
# time shows it too.  An operation's time divided by the mean time of the two
# calibration loops around it (unit "cal") cancels most of the swing; the
# wall-clock figures are printed beside it.
_CAL_A = tuple((7 * i) % 11 - 5 for i in range(48))
_CAL_B = tuple((5 * i) % 13 - 6 for i in range(48))

# Set-up is one span of under 0.1 s per process, so each worker times the
# calibration loop SETUP_CAL_RUNS times right after its set-up ends.  setup_s
# has to be in seconds: it is the set-up time in calibration loops, scaled to
# a host on which one loop takes CAL_SECONDS (about its time on a quiet host
# here).  The table prints the wall-clock median beside it.
SETUP_CAL_RUNS = 25
CAL_SECONDS = 1e-3

COLORED_MAX_HOOK_SIZE = 3
LONG_BRAID_HOOKS = ((0, 0), (2, 1))


def hook_key(arm: int, leg: int) -> str:
    return f"{arm},{leg}"


def hooks_up_to(size: int) -> list[tuple[int, int]]:
    """(arm, leg) of every hook with at most ``size`` boxes, in the CLI table's order.

    Written out here rather than taken from ``hookalex.young`` so that the
    check of the printed hooks does not trust the program under test.
    """
    return [(arm, s - 1 - arm) for s in range(1, size + 1) for arm in range(s - 1, -1, -1)]


# -- workloads -------------------------------------------------------------------
#
# ``op`` is the timed operation; ``check`` runs after the timed loop and
# returns the problems it found in one operation's outcome.  Checks that need
# the Burau oracle cache its answer per braid, since schedules repeat braids.


class Workload:
    def __init__(self, hx, reference: dict[str, dict[str, str]]):
        self.hx = hx
        self.reference = reference
        self._burau: dict[str, dict] = {}

    def prepare(self, entry):
        return self.hx.parse_braid(entry.text, entry.strands)

    def burau(self, entry, braid) -> dict:
        if entry.key not in self._burau:
            self._burau[entry.key] = self.hx.burau_alexander(braid).to_json_dict()
        return self._burau[entry.key]

    def against_reference(self, entry, hook: str, poly: dict) -> list[str]:
        want = self.reference.get(entry.key, {}).get(hook)
        if want is None:
            return [f"no reference for hook ({hook}) of '{entry.key}'"]
        if digest(poly) != want:
            return [f"hook ({hook}) of '{entry.key}' differs from the reference "
                    f"(min_exp {poly['min_exp']}, {len(poly['coeffs'])} coefficients)"]
        return []


class FundWide(Workload):
    """``alexander(Hook(0,0), b)``, then ``burau_alexander(b)`` and equality: verify-oracle."""

    def op(self, entry, braid):
        engine = self.hx.alexander(self.hx.Hook(0, 0), braid).polynomial
        oracle = self.hx.burau_alexander(braid)
        return engine, oracle, engine == oracle

    def check(self, entry, braid, outcome) -> list[str]:
        engine, oracle, equal = outcome
        poly = engine.to_json_dict()
        problems = [] if equal and poly == oracle.to_json_dict() else \
            [f"engine and Burau oracle disagree on '{entry.key}'"]
        return problems + self.against_reference(entry, hook_key(0, 0), poly)


class ColoredScaling(Workload):
    """One in-process ``hookalex table`` run over all hooks up to size 3 for one knot."""

    def prepare(self, entry):
        return self.hx.cli.RunConfig("table", table_braids=(entry.key,),
                                     max_hook_size=COLORED_MAX_HOOK_SIZE)

    def op(self, entry, config):
        out = io.StringIO()
        return self.hx.cli.run(config, out), out.getvalue()

    def check(self, entry, config, outcome) -> list[str]:
        code, text = outcome
        if code != 0:
            return [f"table exited {code} on '{entry.key}'"]
        records = [json.loads(line) for line in text.splitlines()]
        hooks = [(r["arm"], r["leg"]) for r in records]
        if hooks != hooks_up_to(COLORED_MAX_HOOK_SIZE):
            return [f"table printed hooks {hooks} for '{entry.key}'"]
        fund = records[0]["alexander"]
        braid = self.hx.parse_braid(entry.text, entry.strands)
        problems = [] if fund == self.burau(entry, braid) else \
            [f"fundamental of '{entry.key}' differs from the Burau oracle"]
        for rec, (arm, leg) in zip(records, hooks):
            poly = rec["alexander"]
            if rec["scaling_check"] is not True:
                problems.append(f"scaling_check false for ({arm},{leg}) on '{entry.key}'")
            if poly != substitute_power(fund, arm + leg + 1):
                problems.append(f"scaling identity fails for ({arm},{leg}) on '{entry.key}'")
            problems += self.against_reference(entry, hook_key(arm, leg), poly)
        return problems


class LongBraid(Workload):
    """``alexander(h, b)`` for the fundamental hook and ``(2,1)`` on a long 3-4 strand braid."""

    def op(self, entry, braid):
        return [self.hx.alexander(self.hx.Hook(a, l), braid).polynomial
                for a, l in LONG_BRAID_HOOKS]

    def check(self, entry, braid, outcome) -> list[str]:
        polys = [p.to_json_dict() for p in outcome]
        fund = polys[0]
        if entry.torus is not None:
            expect = torus_alexander(*entry.torus)
            source = f"the T{entry.torus} closed form"
        else:
            expect = self.burau(entry, braid)
            source = "the Burau oracle"
        problems = [] if fund == expect else \
            [f"fundamental of '{entry.key}' differs from {source}"]
        for poly, (arm, leg) in zip(polys, LONG_BRAID_HOOKS):
            if poly != substitute_power(fund, arm + leg + 1):
                problems.append(f"scaling identity fails for ({arm},{leg}) on '{entry.key}'")
            problems += self.against_reference(entry, hook_key(arm, leg), poly)
        return problems


WORKLOAD_CLASSES = {
    "fund-wide": FundWide,
    "colored-scaling": ColoredScaling,
    "long-braid": LongBraid,
}


# -- measuring (worker side) -------------------------------------------------------


def calibration_loop() -> float:
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    for _ in range(5):
        out = [0] * (len(_CAL_A) + len(_CAL_B) - 1)
        for i, a in enumerate(_CAL_A):
            for j, b in enumerate(_CAL_B):
                out[i + j] += a * b
    return time.perf_counter() - t0


def measure(work: Workload, inputs: list, seconds: float, tracer=None) -> dict:
    """Run operations back to back for ``seconds``; the outcomes are checked later.

    ``inputs`` is a list of ``(entry, prepared input)``; the loop cycles
    through it and always completes at least one operation.
    """
    latencies: list[float] = []
    cals = [calibration_loop()]
    outcomes = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        entry, prepared = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            outcome, error = work.op(entry, prepared), None
        except Exception as exc:  # an operation that raises is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        latencies.append(t1 - t0)
        outcomes.append((entry, prepared, outcome, error))
        cals.append(calibration_loop())
        i += 1
        if t1 >= deadline:
            break
    return {"ops": len(latencies), "elapsed_s": t1 - start, "latencies_s": latencies,
            "cal_s": cals, "outcomes": outcomes}


def check(work: Workload, run: dict) -> None:
    """Replace the run's outcomes by the failure count and the first problems found."""
    failed, problems = 0, []
    for entry, prepared, outcome, error in run.pop("outcomes"):
        found = [f"'{entry.key}' raised {error}"] if error else \
            work.check(entry, prepared, outcome)
        if found:
            failed += 1
            problems.extend(found)
    run["failed"] = failed
    run["problems"] = problems[:20]


def measure_traced(work: Workload, inputs: list, seconds: float):
    """``measure`` with spans and counters around every layer; returns (result, tracer)."""
    from hookalex import rmatrix

    tracer = tracing.Tracer()
    before = rmatrix.assemble_R.cache_info()
    modules = [m for name, m in sys.modules.items()
               if name == "hookalex" or name.startswith("hookalex.")]
    restore = tracing.install(tracer, modules)
    try:
        result = measure(work, inputs, seconds, tracer)
    finally:
        restore()
    after = rmatrix.assemble_R.cache_info()
    result["layers"] = tracing.layer_metrics(
        tracer, (after.hits - before.hits, after.misses - before.misses))
    return result, tracer


def load_reference(workload: str) -> dict[str, dict[str, str]]:
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)["workloads"][workload]


def worker(args: argparse.Namespace) -> dict:
    """One worker process: set up, then (unless only timing set-up) measure.

    Set-up runs from just before ``import hookalex`` to the first operation.
    The interpreter's own start is left out: the program cannot change it,
    and it only adds noise.
    """
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import hookalex
    import hookalex.cli

    entries = schedule(args.workload, args.seed)
    work = WORKLOAD_CLASSES[args.workload](hookalex, load_reference(args.workload))
    inputs = [(e, work.prepare(e)) for e in entries]
    wall = time.perf_counter() - started
    cal = statistics.median(calibration_loop() for _ in range(SETUP_CAL_RUNS))
    setup = {"setup_wall_s": wall, "setup_cal": wall / cal}
    if args.role == "setup":
        return setup
    if args.role == "traced":
        result, tracer = measure_traced(work, inputs, args.seconds)
    else:
        result = measure(work, inputs, args.seconds)
    # Read before the checks, whose oracle calls the timed operations never make.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.role == "traced":
        tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    check(work, result)
    result.update(setup)
    return result


# -- orchestration (parent side) ---------------------------------------------------


def spawn(args: argparse.Namespace, role: str, seconds: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + CHILD_GRACE_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with 10 samples beyond it.

    Below 21 samples that percentile would not exceed the median, and the
    median stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def in_cal(run: dict) -> list[float]:
    """Each operation's time over the mean time of the calibration loops around it."""
    cals = run["cal_s"]
    return [lat / ((cals[k] + cals[k + 1]) / 2) for k, lat in enumerate(run["latencies_s"])]


def end_to_end(run: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and a table that adds the wall-clock figures."""
    lat, norm = run["latencies_s"], in_cal(run)
    tail, pct, n = tail_latency(lat)
    tail_cal, _, _ = tail_latency(norm)
    rows = [
        ("setup_s", CAL_SECONDS * statistics.median(s["setup_cal"] for s in setups), "s",
         f"median of {len(setups)} set-ups, at {1e3 * CAL_SECONDS:g} ms per calibration loop"),
        ("setup_wall_s", statistics.median(s["setup_wall_s"] for s in setups), "s",
         f"median of {len(setups)} set-ups, wall clock"),
        ("throughput_ops_per_kcal", 1e3 * len(norm) / sum(norm), "1/kcal",
         f"{run['ops']} ops in {sum(norm) / 1e3:.2f} kcal"),
        ("throughput_ops_s", run["ops"] / run["elapsed_s"], "1/s",
         f"{run['ops']} ops in {run['elapsed_s']:.2f} s"),
        ("latency_p50_cal", statistics.median(norm), "cal", f"{n} samples"),
        ("latency_p50_ms", 1e3 * statistics.median(lat), "ms", f"{n} samples"),
        ("latency_tail_cal", tail_cal, "cal", f"p{pct:.1f} of {n} samples"),
        ("latency_tail_ms", 1e3 * tail, "ms", f"p{pct:.1f} of {n} samples"),
        ("peak_rss_mb", run["peak_rss_mb"], "MB", "ru_maxrss of the worker"),
        ("fail_ratio", run["failed"] / run["ops"], "ratio",
         f"{run['failed']} of {run['ops']} ops failed"),
        ("calibration_loop_ms", 1e3 * statistics.median(run["cal_s"]), "ms",
         f"median of {len(run['cal_s'])} runs"),
    ]
    lines = [f"{name:<24} {value:>14.6g} {unit:<6} {note}" for name, value, unit, note in rows]
    values = {name: value for name, value, _, _ in rows}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, lines


def per_layer(plain: dict, traced: dict) -> tuple[dict, list[str]]:
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = sum(in_cal(plain)) / plain["ops"] / (
        sum(in_cal(traced)) / traced["ops"])
    units = tracing.LAYER_METRICS
    lines = [f"{name:<36} {values[name]:>14.6g} {unit}" for name, unit in units.items()]
    lines.append(f"traced ops {traced['ops']}, untraced ops {plain['ops']}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, lines


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run", "traced"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0 or math.isinf(args.seconds):
        ap.error("--seconds must be a positive number")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        print(json.dumps(worker(args)))
        return 0
    if not (ROOT / "src" / "hookalex" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"perfbench: no hookalex sources under {ROOT / 'src'} or no {REFERENCE.name}; "
              "run it from a checkout of the repository", file=sys.stderr)
        return 2
    if args.trace:
        plain = spawn(args, "run", args.seconds / 2)
        traced = spawn(args, "traced", args.seconds / 2)
        metrics, lines = per_layer(plain, traced)
        runs = [plain, traced]
    else:
        setups = [spawn(args, "setup", args.seconds) for _ in range(SETUPS_BEFORE)]
        plain = spawn(args, "run", args.seconds)
        setups += [spawn(args, "setup", args.seconds) for _ in range(SETUPS_AFTER)]
        metrics, lines = end_to_end(plain, setups + [plain])
        runs = [plain]
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print(f"FAIL {problem}", file=sys.stderr)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
