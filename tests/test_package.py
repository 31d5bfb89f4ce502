"""The package namespace: every exported name resolves, removed ones stay gone,
and every module uses what it imports."""

import ast
import dataclasses
from pathlib import Path

import grovermin
import grovermin.grover as grover
import grovermin.statevector as statevector
from grovermin.objectives import Objective
from grovermin.statevector import MarkedSet, Statevector


def test_every_exported_name_resolves():
    missing = [name for name in grovermin.__all__ if not hasattr(grovermin, name)]
    assert missing == []
    assert len(set(grovermin.__all__)) == len(grovermin.__all__)


def test_star_import_binds_the_exports():
    namespace = {}
    exec("from grovermin import *", namespace)
    assert set(grovermin.__all__) <= set(namespace)


def test_removed_dense_api_is_gone():
    # The closed forms run every search; these wrappers and second copies of
    # the amplification step were deleted with the dense engine.
    removed = [
        (grovermin, "amplify"),
        (grovermin, "measured_success_probability"),
        (grovermin, "phase_flip"),
        (grovermin, "diffusion"),
        (grover, "amplify"),
        (grover, "measured_success_probability"),
        (grover, "iterate"),
        (statevector, "phase_flip"),
        (statevector, "diffusion"),
        (Statevector, "copy"),
        (Statevector, "norm_squared"),
        (MarkedSet, "empty"),
        (MarkedSet, "__contains__"),
    ]
    present = [f"{owner.__name__}.{name}" for owner, name in removed if hasattr(owner, name)]
    assert present == []
    assert {"amplify", "measured_success_probability", "phase_flip", "diffusion"}.isdisjoint(
        grovermin.__all__
    )


def test_objective_has_two_kinds_and_no_scalar_fn():
    # A scalar-only function is passed as a vectorized batch_fn; there is no
    # separate ``fn`` field or unchecked scalar path.
    fields = [f.name for f in dataclasses.fields(Objective)]
    assert fields == ["name", "arity", "batch_fn", "factor"]
    assert not hasattr(Objective, "_vectorized")


def test_every_module_uses_what_it_imports():
    # pyflakes' F401, run with the suite so it needs no linter: each name a
    # module imports is read somewhere in it.  The only exempt lines are the
    # benchmark's shim imports, marked ``# noqa: F401``.
    unused, exempt = [], set()
    for path in sorted(Path(grovermin.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in statement):
                exempt.add(path.name)
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []
    assert exempt == {"minsearch.py", "pivot.py"}
