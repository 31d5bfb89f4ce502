"""Every grovermin name the benchmark under ``perfbench/`` binds still resolves.

``perfbench/spans.py`` rebinds the functions listed in its ``TARGETS`` and
``perfbench/workloads.py`` sets up and checks its workloads through a few
more names, so deleting or renaming one of them, or changing how it is
called, would break ``perfbench/run.py --trace 1`` without failing any other
test.  This test only imports ``perfbench/``.
"""

import importlib
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from grovermin import baseline, cli, minsearch, pivot
from grovermin.encoding import GridLayout, VariableSpec, square_layout
from grovermin.minsearch import Schedule, StopRule
from grovermin.objectives import GOLDSTEIN_PRICE, SHUBERT, Objective

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


def test_descent_call_resolves(spans):
    # descent-20q's search: positional objective, layout, schedule, stop and
    # rng with values=, and the result fields that Descent.check and
    # spans._search_counts read.
    layout = square_layout(["x1", "x2"], -3.2, 3.0, 4)
    values = GOLDSTEIN_PRICE.batch(layout.all_points())
    schedule = Schedule("baritompa")
    result = minsearch.adapted_grover_min(
        GOLDSTEIN_PRICE, layout, schedule, StopRule(), np.random.default_rng(0), values=values
    )
    rounds = result.trace.rounds
    assert type(result.total_iterations) is int
    assert result.total_iterations == sum(r.iterations for r in rounds)
    threshold = math.inf
    for number, r in enumerate(rounds, 1):
        assert r.round == number
        assert r.iterations == schedule.iterations(r.round)
        assert r.value == values[r.index]
        assert r.threshold_before == threshold
        assert r.threshold_after == min(threshold, r.value)
        threshold = r.threshold_after
    assert result.best_value == threshold == values[result.best_index]
    improving = sum(r.value < r.threshold_before for r in rounds)
    counts = spans._search_counts((), {}, result)
    assert counts == {
        "rounds": len(rounds), "oracle_calls": result.total_iterations, "improving_rounds": improving
    }


@pytest.mark.parametrize("experiment", ["gp", "lj-trimer"])
def test_ensemble_setup_calls_resolve(experiment):
    # ensemble-10q's set-up: the default config, its layout and its schedule.
    config = cli.load_config(experiment, None)
    layout = cli.build_layout(config)
    assert isinstance(layout, GridLayout)
    assert isinstance(Schedule.parse(config["schedule"]), Schedule)


def test_pivot_hybrid_shubert_call_resolves():
    # pivot-hybrid's Shubert searches: positional objective, box, qubits,
    # config and rng, and the result fields its check reads.
    config = pivot.PivotConfig(max_generations=10)
    result = pivot.pivot_grover_search(
        SHUBERT, [(-10.0, 10.0), (-10.0, 10.0)], 6, config, np.random.default_rng(0)
    )
    assert SHUBERT(*result.best_point) == result.best_value
    assert result.total_iterations == sum(g.grover_iterations for g in result.generations)
    assert all(isinstance(g.optimal_k, int) for g in result.generations)
    # The rejections are an expectation: a finite float, k per draw exactly.
    for g in result.generations:
        assert isinstance(g.rejected_draws, float) and 0.0 <= g.rejected_draws < math.inf
        assert g.grover_iterations == g.optimal_k * (g.num_pivots + g.rejected_draws)


def test_pivot_hybrid_growth_call_resolves():
    # pivot-hybrid's small configs and its lj_growth call.
    pivot_config = pivot.PivotConfig(max_generations=10)
    config = pivot.GrowthConfig(qubits_per_axis=3, trimer_qubits=6, pivot=pivot_config)
    result = pivot.lj_growth(5, config, np.random.default_rng(0))
    assert [stage.num_atoms for stage in result.stages] == [3, 4, 5]
    assert result.final_positions.shape == (5, 3)


def test_pivot_search_calls_each_layer_through_its_binding(monkeypatch):
    # spans.py times pivot-hybrid's layers by rebinding these names; a loop
    # that reached them any other way would leave those metrics at zero.
    calls = dict.fromkeys(["select_pivots", "boltzmann_weights", "resample", "batch"], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ["select_pivots", "boltzmann_weights", "resample"]:
        monkeypatch.setattr(pivot, name, counting(name, getattr(pivot, name)))
    monkeypatch.setattr(Objective, "batch", counting("batch", Objective.batch))
    config = pivot.PivotConfig(max_generations=10)
    result = pivot.pivot_grover_search(
        SHUBERT, [(-10.0, 10.0), (-10.0, 10.0)], 6, config, np.random.default_rng(1)
    )
    assert result.num_generations == 10
    assert calls == {"select_pivots": 10, "boltzmann_weights": 10, "resample": 10, "batch": 11}
