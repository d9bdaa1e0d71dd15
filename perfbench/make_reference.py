#!/usr/bin/env python3
"""Write reference.json: the fingerprint of every output the benchmark checks.

    python3 perfbench/make_reference.py

For every braid in every workload pool it records, per hook the workload
evaluates, ``expected.digest`` of the polynomial's ``to_json_dict()`` as the
sources under ``src/`` compute it now.  Later runs must reproduce each
polynomial bit for bit.  Run it again only when the pools change, never to
accept a changed output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hookalex import Hook, alexander, parse_braid  # noqa: E402

from corpus import WORKLOADS, pool  # noqa: E402
from expected import digest  # noqa: E402
from run import COLORED_MAX_HOOK_SIZE, LONG_BRAID_HOOKS, REFERENCE, hook_key, hooks_up_to  # noqa: E402

HOOKS = {
    "fund-wide": [(0, 0)],
    "colored-scaling": hooks_up_to(COLORED_MAX_HOOK_SIZE),
    "long-braid": list(LONG_BRAID_HOOKS),
}


def main() -> int:
    out = {}
    for workload in WORKLOADS:
        table = {}
        for entries in pool(workload):
            for e in entries:
                b = parse_braid(e.text, e.strands)
                table[e.key] = {hook_key(a, l): digest(alexander(Hook(a, l), b)
                                                       .polynomial.to_json_dict())
                                for a, l in HOOKS[workload]}
        out[workload] = table
        print(f"{workload}: {len(table)} braids", file=sys.stderr)
    doc = {"digest": "expected.digest of LaurentPoly.to_json_dict()", "workloads": out}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
