"""The public surface of the package is pinned: changing it must change this test too.

Every other name that src defines has a caller in src: a helper that only
tests use lives in the tests.
"""

import ast
from pathlib import Path

import hookalex

PUBLIC_API = [
    "AlexanderResult",
    "BraidWord",
    "Hook",
    "LaurentPoly",
    "ScalingReport",
    "alexander",
    "burau_alexander",
    "check_scaling",
    "closure_is_knot",
    "parse_braid",
    "qnum",
    "qnum_bullet",
]


def test_public_api_is_pinned_and_imports():
    assert sorted(hookalex.__all__) == PUBLIC_API
    namespace: dict = {}
    exec("from hookalex import *", namespace)  # raises if a listed name is missing
    assert set(PUBLIC_API) <= set(namespace)


# Module-level names that need no caller in src: the package's export list and
# the console script.  The Schur oracle runs only in tests, but the benchmark's
# tracer imports hookalex.schur and wraps ratio_at_A1, so that function and what
# it reads stay in src until the tracer drops the wrap (ROADMAP direction 5);
# the rest of the oracle, Jacobi-Trudi included, lives in tests/conftest.py.
NEEDS_NO_CALLER = {("__init__", "__all__"), ("cli", "main")}
EXEMPT_MODULES = {"schur"}
SCHUR_NAMES = ["Partition", "hook_partition", "ratio_at_A1"]


def _definitions(statement):
    """The module-level names that a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _names(statement):
    """Every name that code in ``statement`` uses, plain or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(statement)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_src_name_has_a_src_caller():
    package = Path(hookalex.__file__).resolve().parent
    statements = [(path.stem, s) for path in sorted(package.glob("*.py"))
                  for s in ast.parse(path.read_text()).body]
    used = [(s, _names(s)) for _, s in statements]
    uncalled = [f"{module}.{name}"
                for module, s in statements if module not in EXEMPT_MODULES
                for name in sorted(_definitions(s))
                if (module, name) not in NEEDS_NO_CALLER
                and not any(name in names for t, names in used if t is not s)]
    assert not uncalled, f"defined in src but named only by tests or by nothing: {uncalled}"


def test_the_exempt_module_holds_only_what_the_tracer_reads():
    # the exemption above covers these names only: any other public name in
    # hookalex.schur would be a test-only helper in src
    path = Path(hookalex.__file__).resolve().parent / "schur.py"
    names = {name for s in ast.parse(path.read_text()).body for name in _definitions(s)}
    assert sorted(n for n in names if not n.startswith("_")) == SCHUR_NAMES


def _called_name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_cache_is_bounded_by_a_named_constant():
    # Caches are bounded: each lru_cache in src takes its maxsize from a
    # module-level int constant, and the unbounded functools.cache is not used.
    package = Path(hookalex.__file__).resolve().parent
    problems, caches = [], 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = {t.id: s.value.value for s in tree.body
                     if isinstance(s, ast.Assign) and isinstance(s.value, ast.Constant)
                     for t in s.targets if isinstance(t, ast.Name)}
        bounded = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node.func) == "lru_cache":
                sizes = node.args + [k.value for k in node.keywords if k.arg == "maxsize"]
                named = len(sizes) == 1 and isinstance(sizes[0], ast.Name)
                size = constants.get(sizes[0].id) if named else None
                if type(size) is int and size > 0:
                    bounded.add(node.func)
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                problems += [f"{path.name}:{node.lineno}: functools.cache"
                             for alias in node.names if alias.name == "cache"]
            if (isinstance(node, ast.Attribute) and node.attr == "cache"
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                problems.append(f"{path.name}:{node.lineno}: functools.cache")
        for node in ast.walk(tree):
            if _called_name(node) == "lru_cache" and isinstance(node, (ast.Name, ast.Attribute)):
                caches += 1
                if node not in bounded:
                    problems.append(f"{path.name}:{node.lineno}: lru_cache without a named "
                                    f"positive int maxsize")
    assert caches and not problems, problems
