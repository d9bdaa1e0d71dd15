#!/usr/bin/env python3
"""Sweep the scaling identity A_color(q) = A_fund(q^size) beyond the test corpus.

Checks every hook up to --max-hook-size against every knot in the corpus plus
optional extra braids, timing each evaluation.  Everything is exact; a FAIL
line would mean a genuine counterexample (none are expected).
"""

import argparse
import time

from hookalex.braid import BraidError, closure_is_knot
from hookalex.cli import DEFAULT_TABLE_BRAIDS, parse_table_braids
from hookalex.evaluator import check_scaling
from hookalex.young import hooks_up_to_size


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-hook-size", type=int, default=6)
    ap.add_argument("--braids", default=";".join(DEFAULT_TABLE_BRAIDS),
                    help="semicolon-separated 'letters@strands' entries")
    args = ap.parse_args()
    if args.max_hook_size < 1:
        ap.error(f"--max-hook-size: must be at least 1, got {args.max_hook_size}")

    try:
        parsed = parse_table_braids(tuple(s for s in args.braids.split(";") if s.strip()))
    except BraidError as exc:
        ap.error(str(exc))
    braids = []
    for b in parsed:
        if closure_is_knot(b):
            braids.append(b)
        else:
            print(f"# skipping link: '{b}' @ {b.strands}")
    if not braids:
        ap.error("--braids: no entry closes to a knot")

    failures = 0
    for b in braids:
        for h in hooks_up_to_size(args.max_hook_size):
            t0 = time.perf_counter()
            report = check_scaling(h, b)
            dt = 1e3 * (time.perf_counter() - t0)
            status = "ok  " if report.equal else "FAIL"
            print(f"{status} braid '{b}'@{b.strands}  hook {h} (size {h.size})"
                  f"  {dt:7.1f} ms   {report.colored}")
            failures += not report.equal
    n = args.max_hook_size
    print(f"\n{'all equal' if failures == 0 else f'{failures} FAILURES'} "
          f"({len(braids)} knots x {n * (n + 1) // 2} hooks)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
