"""Spans and counters around the public functions of the hookalex modules.

Only the traced worker process calls :func:`install`.  It replaces each target
function wherever a hookalex module binds it, which covers its import sites,
and returns a function that puts every original back.  Nothing in ``src/``
is edited, so untraced runs carry no tracing cost.

A span records a name, start, end, the span open when it started (its
parent) and the operation it belongs to.  Spans are kept in flat arrays while
the run lasts and are written out once at the end.  A span's self time is
its duration minus the durations of its direct children; because the calls
nest, the self times of all spans of one operation add up to the duration of
that operation's root span.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable

ROOT_SPAN = "bench.op"

# Per-layer metrics the traced run reports, with their units.  Times and
# counts are per operation; maxima and ratios are over the whole traced run.
LAYER_METRICS = {
    "young.enumerate_paths.s": "s/op",
    "young.basis_dim_max": "count",
    "rmatrix.assemble_R.s": "s/op",
    "rmatrix.assemble_R.calls": "1/op",
    "rmatrix.assemble_R.hit_ratio": "ratio",
    "rmatrix.numerator_rows.s": "s/op",
    "rmatrix.numerator_rows.calls": "1/op",
    "rmatrix.product.self_s": "s/op",
    "rmatrix.den_degree_max": "count",
    "rmatrix.coeff_bits_max": "bits",
    "evaluator.alexander.self_s": "s/op",
    "evaluator.alexander.calls_per_op": "1/op",
    "evaluator.unit_normalize.s": "s/op",
    "schur.ratio_at_A1.s": "s/op",
    "laurent.exact_div.s": "s/op",
    "laurent.exact_div.numerator_rows.s": "s/op",
    "laurent.exact_div.as_laurent.s": "s/op",
    "laurent.exact_div.calls": "1/op",
    "laurent.mul.calls": "1/op",
    "laurent.mul.coeff_ops": "1/op",
    "oracle.burau_alexander.s": "s/op",
    "cli.run.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder plus the counters the wrappers update."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self.mul_calls = 0
        self.mul_coeff_ops = 0
        self.basis_dim_max = 0
        self.den_degree_max = 0
        self.coeff_bits_max = 0

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.op.append(self._op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._open(ROOT_SPAN)

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self._op = -1

    def spanned(self, name: str, fn: Callable,
                observe: Callable[[object], None] | None = None) -> Callable:
        """``fn`` wrapped in a span; ``observe`` sees each result after the span closes."""
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(result)
            return result
        return wrapper

    # -- analysis ----------------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        durs = self.durations()
        out = list(durs)
        for dur, parent in zip(durs, self.parent):
            if parent >= 0:
                out[parent] -= dur
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: op, index, parent, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, (nid, op, parent, s, e) in enumerate(
                    zip(self.name, self.op, self.parent, self.start, self.end)):
                fh.write(f"{op}\t{i}\t{parent}\t{self.names[nid]}\t"
                         f"{s - t0:.9f}\t{e - t0:.9f}\n")


def install(tracer: Tracer, modules: Iterable[ModuleType]) -> Callable[[], None]:
    """Wrap the traced functions of the hookalex modules; returns the undo function.

    ``modules`` must include every module through which the benchmark or the
    program reaches a traced function (the hookalex package and its modules).
    """
    import hookalex.cli as cli
    import hookalex.evaluator as evaluator
    import hookalex.laurent as laurent
    import hookalex.oracle as oracle
    import hookalex.rmatrix as rmatrix
    import hookalex.schur as schur
    import hookalex.young as young

    modules = list(modules)
    undo: list[tuple[object, str, object]] = []

    def rebind(original: Callable, replacement: Callable) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def basis(paths) -> None:
        tracer.basis_dim_max = max(tracer.basis_dim_max, len(paths))

    def trace_result(value) -> None:
        tracer.den_degree_max = max(tracer.den_degree_max, len(value.den.coeffs) - 1)
        bits = max(abs(c).bit_length() for c in value.num.coeffs + value.den.coeffs)
        tracer.coeff_bits_max = max(tracer.coeff_bits_max, bits)

    for fn, name, observe in (
            (young.enumerate_paths, "young.enumerate_paths", basis),
            (rmatrix.assemble_R, "rmatrix.assemble_R", None),
            (rmatrix.product_numerators, "rmatrix.product_numerators", None),
            (rmatrix.trace_product, "rmatrix.trace_product", trace_result),
            (schur.ratio_at_A1, "schur.ratio_at_A1", None),
            (evaluator.alexander, "evaluator.alexander", None),
            (evaluator.unit_normalize, "evaluator.unit_normalize", None),
            (laurent.exact_div, "laurent.exact_div", None),
            (oracle.burau_alexander, "oracle.burau_alexander", None),
            (cli.run, "cli.run", None)):
        rebind(fn, tracer.spanned(name, fn, observe))

    numerator_rows = rmatrix.BlockOperator.numerator_rows
    undo.append((rmatrix.BlockOperator, "numerator_rows", numerator_rows))
    rmatrix.BlockOperator.numerator_rows = tracer.spanned("rmatrix.numerator_rows",
                                                          numerator_rows)

    poly = laurent.LaurentPoly
    mul = poly.__mul__

    def counted_mul(self, other):
        tracer.mul_calls += 1
        if isinstance(other, poly):
            tracer.mul_coeff_ops += (len(self.coeffs) - self.coeffs.count(0)) * len(other.coeffs)
        return mul(self, other)

    for attr in ("__mul__", "__rmul__"):
        undo.append((poly, attr, getattr(poly, attr)))
        setattr(poly, attr, counted_mul)

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        undo.clear()

    return restore


def layer_metrics(tracer: Tracer, assemble_cache: tuple[int, int]) -> dict[str, float]:
    """Per-layer metrics from the spans; ``assemble_cache`` is (hits, misses) of the run.

    ``trace.overhead_ratio`` needs the untraced run and is added by the caller.
    """
    durs = tracer.durations()
    selfs = tracer.self_times()
    names = [tracer.names[n] for n in tracer.name]
    ops = names.count(ROOT_SPAN)
    if ops == 0:
        raise ValueError("the traced run completed no operation")
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    div_by_parent: dict[str, float] = {}
    for name, dur, slf, parent in zip(names, durs, selfs, tracer.parent):
        incl[name] = incl.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + slf
        calls[name] = calls.get(name, 0) + 1
        if name == "laurent.exact_div" and parent >= 0:
            key = names[parent]
            div_by_parent[key] = div_by_parent.get(key, 0.0) + dur
    hits, misses = assemble_cache
    metrics = {
        "young.enumerate_paths.s": incl.get("young.enumerate_paths", 0.0) / ops,
        "young.basis_dim_max": tracer.basis_dim_max,
        "rmatrix.assemble_R.s": incl.get("rmatrix.assemble_R", 0.0) / ops,
        "rmatrix.assemble_R.calls": calls.get("rmatrix.assemble_R", 0) / ops,
        "rmatrix.assemble_R.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "rmatrix.numerator_rows.s": incl.get("rmatrix.numerator_rows", 0.0) / ops,
        "rmatrix.numerator_rows.calls": calls.get("rmatrix.numerator_rows", 0) / ops,
        "rmatrix.product.self_s": (own.get("rmatrix.product_numerators", 0.0)
                                   + own.get("rmatrix.trace_product", 0.0)) / ops,
        "rmatrix.den_degree_max": tracer.den_degree_max,
        "rmatrix.coeff_bits_max": tracer.coeff_bits_max,
        "evaluator.alexander.self_s": own.get("evaluator.alexander", 0.0) / ops,
        "evaluator.alexander.calls_per_op": calls.get("evaluator.alexander", 0) / ops,
        "evaluator.unit_normalize.s": incl.get("evaluator.unit_normalize", 0.0) / ops,
        "schur.ratio_at_A1.s": incl.get("schur.ratio_at_A1", 0.0) / ops,
        "laurent.exact_div.s": incl.get("laurent.exact_div", 0.0) / ops,
        "laurent.exact_div.numerator_rows.s":
            div_by_parent.get("rmatrix.numerator_rows", 0.0) / ops,
        # RationalFunc.as_laurent is the only exact_div call made directly
        # from the body of evaluator.alexander: the final division.
        "laurent.exact_div.as_laurent.s": div_by_parent.get("evaluator.alexander", 0.0) / ops,
        "laurent.exact_div.calls": calls.get("laurent.exact_div", 0) / ops,
        "laurent.mul.calls": tracer.mul_calls / ops,
        "laurent.mul.coeff_ops": tracer.mul_coeff_ops / ops,
        "oracle.burau_alexander.s": incl.get("oracle.burau_alexander", 0.0) / ops,
        "cli.run.self_s": own.get("cli.run", 0.0) / ops,
    }
    return metrics
