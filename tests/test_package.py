"""The package namespace: every exported name resolves, removed ones stay gone,
and every module uses what it imports and the private names it defines."""

import ast
import dataclasses
from pathlib import Path

import grovermin
import grovermin.cli as cli
import grovermin.grover as grover
import grovermin.objectives as objectives
import grovermin.statevector as statevector
from grovermin.encoding import GridLayout, VariableSpec
from grovermin.objectives import ClusterGeometry, Objective
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
    # the amplification step were deleted with the dense engine.  Every run
    # path decodes indices and evaluates objectives in batches, so the
    # point-to-index encoder and the scalar second copies of the trimer,
    # cluster and Shubert formulas were deleted too: one implementation per
    # objective, one direction for the grid codec.  The register cap lives in
    # the grid module, the CLI raises plain ValueErrors, writes only JSON
    # values through the stdlib encoder and records a round's index, not its
    # point, the vector pair energy has one in-place form, and a grid scan
    # maps every objective's axes one way (``map_axis``, ``mapped_mesh``).
    # A run's distributions are one row per round, which ``main`` writes.
    # ``Objective.batch`` works in blocks, so the Shubert factor keeps no block size.
    gone = ["amplify", "measured_success_probability", "phase_flip", "diffusion"]
    gone += ["cluster_energy", "shubert_eval", "trimer_energy"]
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
        (grovermin, "cluster_energy"),
        (grovermin, "shubert_eval"),
        (grovermin, "trimer_energy"),
        (objectives, "cluster_energy"),
        (objectives, "shubert_eval"),
        (objectives, "trimer_energy"),
        (GridLayout, "encode"),
        (VariableSpec, "value_to_level"),
        (ClusterGeometry, "num_fixed"),
        (cli, "ConfigError"),
        (cli, "_json_default"),
        (objectives, "_lj"),
        (statevector, "MAX_QUBITS"),
        (statevector, "RegisterTooLarge"),
        (cli, "_dumps"),
        (cli, "_FloatTexts"),
        (cli, "_round_points"),
        (Objective, "factor_mesh"),
        (cli, "emit_distribution"),
        (cli, "CSV_BLOCK_ROWS"),
        (objectives, "SHUBERT_BLOCK"),
    ]
    present = [f"{owner.__name__}.{name}" for owner, name in removed if hasattr(owner, name)]
    assert present == []
    assert set(gone).isdisjoint(grovermin.__all__)


def test_only_the_cli_imports_the_dense_oracle():
    # The dense statevector is a cross-check, not the engine: apart from the
    # package's re-exports and the benchmark's ``# noqa: F401`` shim lines,
    # only the CLI's appendix demo imports it.
    importers = []
    for path in sorted(Path(grovermin.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and "statevector" in (
                node.module, *(alias.name for alias in node.names)
            ):
                if "# noqa: F401" not in lines[node.end_lineno - 1]:
                    importers.append(path.name)
    assert importers == ["__init__.py", "cli.py"]


def test_objective_has_two_kinds_and_no_scalar_fn():
    # A scalar-only function is passed as a vectorized batch_fn; there is no
    # separate ``fn`` field or unchecked scalar path.
    fields = [f.name for f in dataclasses.fields(Objective)]
    assert fields == ["name", "arity", "batch_fn", "factor"]
    assert not hasattr(Objective, "_vectorized")


def defined_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define (not import)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_every_module_uses_what_it_imports():
    # pyflakes' F401, run with the suite so it needs no linter: each name a
    # module imports is read somewhere in it.  The only exempt lines are the
    # benchmark's shim imports, marked ``# noqa: F401``.  A private name
    # (``_x``) a module defines is dead unless the module itself reads it.
    unused, exempt, private = [], set(), []
    for path in sorted(Path(grovermin.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name in defined_names(tree):
            if name.startswith("_") and not name.startswith("__"):
                private.append(name)
                if name not in read:
                    unused.append(f"{path.name} {name} (defined, never read)")
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
    assert {"_is_int", "_trimer_shared", "_free_atom_batch", "_build"} <= set(private)
