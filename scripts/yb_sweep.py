#!/usr/bin/env python3
"""Exhaustive Yang-Baxter / far-commutativity / transposition sweep over hooks and strand counts.

The doublet entries are pinned by trace, determinant, and one Yang-Baxter
component; this sweep confirms the full operator identities hold for every
target vertex, which is the strongest internal consistency check the engine
has.  It also checks, for every crossing and both directions, the
transposition identity (q -> -q^-1 with paths flipped) that lets the
evaluator mirror half the vertices of a self-transpose color.
"""

import argparse
import time

from hookalex.rmatrix import commutation_holds, transpose_holds, yang_baxter_holds
from hookalex.young import HookGraph, StrandBudgetError, check_strands, hooks_up_to_size


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-hook-size", type=int, default=5)
    ap.add_argument("--max-strands", type=int, default=5)
    args = ap.parse_args()
    if args.max_hook_size < 1:
        ap.error(f"--max-hook-size: must be at least 1, got {args.max_hook_size}")
    if args.max_strands < 3:
        ap.error(f"--max-strands: Yang-Baxter needs at least 3 strands, got {args.max_strands}")
    try:
        check_strands(args.max_strands)
    except StrandBudgetError as exc:
        ap.error(f"--max-strands: {exc}")

    checks = failures = 0
    t0 = time.perf_counter()
    for h in hooks_up_to_size(args.max_hook_size):
        for m in range(3, args.max_strands + 1):
            graph = HookGraph(h, m)
            for k in range(m):
                for i in range(1, m - 1):
                    checks += 1
                    if not yang_baxter_holds(graph, k, i):
                        failures += 1
                        print(f"FAIL yb hook {h} m={m} k={k} i={i}")
                for i in range(1, m - 1):
                    for j in range(i + 2, m):
                        checks += 1
                        if not commutation_holds(graph, k, i, j):
                            failures += 1
                            print(f"FAIL commute hook {h} m={m} k={k} ({i},{j})")
                for i in range(1, m):
                    for inverse in (False, True):
                        checks += 1
                        if not transpose_holds(graph, k, i, inverse):
                            failures += 1
                            print(f"FAIL transpose hook {h} m={m} k={k} i={i} inverse={inverse}")
    dt = time.perf_counter() - t0
    print(f"{checks} identities checked in {dt:.2f}s, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
