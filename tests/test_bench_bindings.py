"""Every grovermin name the benchmark under ``perfbench/`` binds still resolves.

``perfbench/spans.py`` rebinds the functions listed in its ``TARGETS`` and
``perfbench/workloads.py`` checks results through a few ``encoding`` names,
so deleting or renaming one of them would break ``perfbench/run.py --trace 1``
without failing any other test.  This test only imports ``perfbench/``.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from grovermin import baseline, cli
from grovermin.encoding import GridLayout, VariableSpec, square_layout
from grovermin.objectives import GOLDSTEIN_PRICE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_span_targets_resolve(spans):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.TARGETS
        if not hasattr(owner, attr)
    ]
    assert missing == []


@pytest.mark.parametrize(
    "owner, attr",
    [(GridLayout, "levels"), (GridLayout, "decode"), (VariableSpec, "level_to_value")],
)
def test_workload_checks_resolve(owner, attr):
    assert hasattr(owner, attr)


def test_write_json_takes_the_path_first(spans, tmp_path):
    # spans._write_json_counts stats args[0], the file write_json wrote.
    first = next(iter(inspect.signature(cli.write_json).parameters.values()))
    assert first.name == "path"
    assert first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    path = tmp_path / "out.json"
    cli.write_json(path, {"a": [1.5]})
    assert spans._write_json_counts((path, None), {}, None) == {"bytes": path.stat().st_size}


def test_grid_brute_min_takes_the_workload_calls():
    # perfbench/workloads.py scans with grid_brute_min(objective, layout) and
    # passes values= in descent-20q's set-up.
    signature = inspect.signature(baseline.grid_brute_min)
    layout = square_layout(["x1", "x2"], -3.2, 3.0, 4)
    values = GOLDSTEIN_PRICE.batch(layout.all_points())
    signature.bind(GOLDSTEIN_PRICE, layout)
    signature.bind(GOLDSTEIN_PRICE, layout, values=values)
    scanned = baseline.grid_brute_min(GOLDSTEIN_PRICE, layout)
    assert baseline.grid_brute_min(GOLDSTEIN_PRICE, layout, values=values) == scanned
