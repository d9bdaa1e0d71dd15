"""Command-line surface: evaluate, verify, and tabulate colored Alexander polynomials.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 internal inconsistency.
Every usage error, argparse's own included, is one bounded ``usage error:`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .braid import BraidError, BraidWord, closure_is_knot, excerpt, excerpt_int, parse_braid
from .evaluator import ScalingReport, alexander, check_scaling
from .laurent import InexactDivisionError, NormalizationError
from .oracle import burau_alexander
from .rmatrix import commutation_holds, transpose_holds, yang_baxter_holds
from .young import Hook, HookGraph, check_hook_size, check_strands, hooks_up_to_size

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# The most characters of a usage error's message that are printed.
MAX_MESSAGE = 200

# The largest --max-hook-size of a table sweep.  The sweep evaluates
# S(S+1)/2 hooks per knot, each costlier as S grows: on the default corpus
# size 60 takes 2.6 s, size 110 takes 10 s and size 120 takes 12 s on one
# Xeon core, so larger sweeps are refused before any record is printed.
MAX_TABLE_HOOK_SIZE = 110

# Default braid corpus for table mode: "letters@strands", knots only.
DEFAULT_TABLE_BRAIDS = (
    "1 1 1@2",
    "1 1 1 1 1@2",
    "1 1 1 1 1 1 1@2",
    "1 -2 1 -2@3",
    "1 1 1 2 -1 2@3",
    "1 1 -2 1 -2@3",
)


@dataclass
class RunConfig:
    command: str
    braid: str = ""
    strands: int = 2
    arm: int = 0
    leg: int = 0
    fmt: str = "text"
    table_braids: tuple[str, ...] = DEFAULT_TABLE_BRAIDS
    max_hook_size: int = 3


def _usage_error(message: str) -> int:
    if len(message) > MAX_MESSAGE:
        message = f"{message[:MAX_MESSAGE]}... ({len(message)} characters)"
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are bounded usage errors; its subparsers inherit it."""

    def error(self, message: str):
        raise SystemExit(_usage_error(message))


def _split_entries(text: str) -> tuple[str, ...]:
    return tuple([s for s in text.split(";") if s.strip()])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hookalex",
        description="Exact colored Alexander polynomials of knots from braid words.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_braid_flags(p, hook=True):
        p.add_argument("--strands", type=int, required=True, help="strand count m >= 2")
        p.add_argument("--braid", required=True,
                       help="whitespace-separated signed generators, e.g. '1 -2 1 -2'")
        if hook:
            p.add_argument("--arm", type=int, required=True, help="hook arm length a >= 0")
            p.add_argument("--leg", type=int, required=True, help="hook leg length l >= 0")

    p_eval = sub.add_parser("eval", help="evaluate one colored Alexander polynomial")
    add_braid_flags(p_eval)
    p_eval.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    p_thm = sub.add_parser("check-theorem",
                           help="check the scaling identity A_color(q) = A_fund(q^size)")
    add_braid_flags(p_thm)
    p_thm.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    p_yb = sub.add_parser("check-yb", help="verify the Yang-Baxter, far-commutation "
                          "and transposition identities of the crossing operators")
    p_yb.add_argument("--strands", type=int, required=True)
    p_yb.add_argument("--arm", type=int, required=True)
    p_yb.add_argument("--leg", type=int, required=True)

    p_table = sub.add_parser("table", help="emit one JSON record per (braid, hook)")
    p_table.add_argument("--braids", dest="table_braids", type=_split_entries,
                         default=DEFAULT_TABLE_BRAIDS,
                         help="semicolon-separated 'letters@strands' entries")
    p_table.add_argument("--max-hook-size", type=int, default=3)

    p_oracle = sub.add_parser("verify-oracle",
                              help="compare the fundamental invariant with the Burau oracle")
    add_braid_flags(p_oracle, hook=False)
    return parser


def _hook(cfg: RunConfig) -> Hook:
    try:
        color = Hook(cfg.arm, cfg.leg)
        check_hook_size(color.size)
    except ValueError as exc:
        raise BraidError(f"--arm/--leg: {exc}") from exc
    return color


def _strands(cfg: RunConfig) -> None:
    try:
        check_strands(cfg.strands)
    except BraidError as exc:
        raise BraidError(f"--strands: {exc}") from exc


def _braid(cfg: RunConfig) -> BraidWord:
    _strands(cfg)  # before the closure check allocates one slot per strand
    try:
        b = parse_braid(cfg.braid, cfg.strands)
    except BraidError as exc:
        raise BraidError(f"--braid: {exc}") from exc
    if not closure_is_knot(b):
        raise BraidError(f"--braid: closure of {excerpt(cfg.braid)} is not a knot")
    return b


def parse_table_braids(entries: tuple[str, ...]) -> list[BraidWord]:
    """Parse ``letters@strands`` entries; a malformed one raises BraidError naming --braids.

    So does an entry above the strand limit, before any entry is evaluated.
    """
    braids = []
    for item in entries:
        text, _, strands = item.partition("@")
        if not strands:
            raise BraidError(f"--braids: entry {excerpt(item)} is missing '@strands'")
        try:
            count = int(strands)
        except ValueError:
            raise BraidError(f"--braids: bad strand count in {excerpt(item)}") from None
        try:
            braids.append(parse_braid(text.strip(), count))
            check_strands(count)
        except BraidError as exc:
            raise BraidError(f"--braids: {exc}") from exc
    return braids


def record_for(report: ScalingReport) -> dict:
    """The documented JSON record for one (braid, hook) evaluation."""
    return {
        "braid": str(report.braid),
        "strands": report.braid.strands,
        "arm": report.hook.arm,
        "leg": report.hook.leg,
        "alexander": report.colored.to_json_dict(),
        "scaling_check": report.equal,
    }


def _run_eval(cfg: RunConfig, out) -> int:
    color, b = _hook(cfg), _braid(cfg)
    if cfg.fmt == "json":
        print(json.dumps(record_for(check_scaling(color, b))), file=out)
    else:
        print(alexander(color, b).polynomial.to_text(), file=out)
    return EXIT_OK


def _run_check_theorem(cfg: RunConfig, out) -> int:
    color, b = _hook(cfg), _braid(cfg)
    report = check_scaling(color, b)
    if cfg.fmt == "json":
        rec = record_for(report)
        rec["expected"] = report.scaled_fundamental.to_json_dict()
        print(json.dumps(rec), file=out)
    elif report.equal:
        print(f"PASS  hook {color} braid '{b}': {report.colored}", file=out)
    else:
        print(f"FAIL  hook {color} braid '{b}'", file=out)
        print(f"  colored:  {report.colored}", file=out)
        print(f"  expected: {report.scaled_fundamental}", file=out)
        print(f"  diff:     {report.diff}", file=out)
    return EXIT_OK if report.equal else EXIT_CHECK_FAILED


def _run_check_yb(cfg: RunConfig, out) -> int:
    color, m = _hook(cfg), cfg.strands
    if m < 3:
        raise BraidError("--strands: Yang-Baxter needs at least 3 strands")
    _strands(cfg)
    graph = HookGraph(color, m)

    def checks():
        for k in range(m):
            for i in range(1, m - 1):
                yield f"yb i={i},{i + 1} target k={k} hook {color}", yang_baxter_holds(graph, k, i)
            for i in range(1, m - 1):
                for j in range(i + 2, m):
                    yield f"commute i={i} j={j} target k={k}", commutation_holds(graph, k, i, j)
            for i in range(1, m):
                for inverse in (False, True):
                    yield (f"transpose i={i} target k={k} inverse={inverse}",
                           transpose_holds(graph, k, i, inverse))

    total = failed = 0
    for label, good in checks():
        total += 1
        failed += not good
        print(f"{'ok  ' if good else 'FAIL'} {label}", file=out)
    print(f"{'FAIL' if failed else 'PASS'}  {total - failed} of {total} operator identities "
          f"hold, hook {color} strands {m}", file=out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _run_table(cfg: RunConfig, out) -> int:
    size = cfg.max_hook_size
    if size < 1:
        raise BraidError(f"--max-hook-size: must be at least 1, got {excerpt_int(size)}")
    try:
        check_hook_size(size)
    except BraidError as exc:
        raise BraidError(f"--max-hook-size: {exc}") from exc
    if size > MAX_TABLE_HOOK_SIZE:
        raise BraidError(f"--max-hook-size: a sweep up to size {size} is above the limit of "
                         f"{MAX_TABLE_HOOK_SIZE}: it would evaluate {size * (size + 1) // 2} "
                         f"hooks per knot")
    knots = [b for b in parse_table_braids(cfg.table_braids) if closure_is_knot(b)]
    if not knots:
        raise BraidError("--braids: no entry closes to a knot")
    all_ok = True
    for b in knots:
        for color in hooks_up_to_size(cfg.max_hook_size):
            rec = record_for(check_scaling(color, b))
            all_ok = all_ok and rec["scaling_check"]
            print(json.dumps(rec), file=out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _run_verify_oracle(cfg: RunConfig, out) -> int:
    b = _braid(cfg)
    engine = alexander(Hook(0, 0), b).polynomial
    reference = burau_alexander(b)
    ok = engine == reference
    print(f"engine: {engine}", file=out)
    print(f"burau:  {reference}", file=out)
    print("PASS" if ok else "FAIL", file=out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_RUNNERS = {
    "eval": _run_eval,
    "check-theorem": _run_check_theorem,
    "check-yb": _run_check_yb,
    "table": _run_table,
    "verify-oracle": _run_verify_oracle,
}


def run(cfg: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        return _RUNNERS[cfg.command](cfg, out)
    except BraidError as exc:
        return _usage_error(str(exc))
    except (InexactDivisionError, NormalizationError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    return run(RunConfig(**vars(build_parser().parse_args(argv))))


if __name__ == "__main__":
    sys.exit(main())
