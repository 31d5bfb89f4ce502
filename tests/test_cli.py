"""End-to-end command tests: defaults, config handling, artifacts, exit codes."""

import dataclasses
import hashlib
import json
import math
import tracemalloc
import typing

import numpy as np
import pytest

import grovermin.cli as cli
import grovermin.minsearch as minsearch
import grovermin.pivot as pivot
import grovermin.statevector as statevector
from grovermin import encoding
from grovermin.cli import main
from grovermin.baseline import grid_brute_min
from grovermin.encoding import GridLayout, VariableSpec, square_layout
from grovermin.grover import class_probabilities
from grovermin.minsearch import (
    Schedule,
    SearchSetup,
    SearchTrace,
    StopRule,
    adapted_grover_min,
    round_states,
    run_ensemble,
)
from grovermin.objectives import Objective, get_objective
from grovermin.pivot import GrowthConfig, PivotConfig
from grovermin.statevector import MarkedSet, iterate, uniform_superposition

RUN_KEYS = {
    "run_id",
    "seed",
    "experiment",
    "schedule",
    "rounds",
    "best_value",
    "best_index",
    "best_point",
    "total_iterations",
    "iterations_to_best",
    "converged",
}
ROUND_KEYS = {"round", "iterations", "extended", "index", "value", "threshold"}
ENSEMBLE_KEYS = {
    "experiment",
    "seed",
    "runs",
    "schedule",
    "reference_value",
    "success_fraction",
    "mean_rounds",
    "median_rounds",
    "mean_total_iterations",
    "median_total_iterations",
    "mean_iterations_to_best",
    "median_iterations_to_best",
    "rounds_histogram",
    "runs_detail",
}
PIVOT_RUN_KEYS = {
    "run_id",
    "seed",
    "experiment",
    "box",
    "qubits",
    "generations",
    "best_value",
    "best_point",
    "total_iterations",
    "converged",
}
GENERATION_KEYS = {
    "generation",
    "num_pivots",
    "sigma",
    "threshold",
    "optimal_k",
    "grover_iterations",
    "rejected_draws",
    "best_value",
}
LAYOUT_KEYS = {"name", "lo", "hi", "qubits"}


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_run_gp_default_summary(capsys):
    assert main(["run", "gp"]) == 0
    out = capsys.readouterr().out
    assert (
        "experiment=gp run=0 best=3.0 point=(0.0, -1.0) "
        "rounds=27 total_iterations=107 converged=True" in out
    )


def test_run_gp_trace_schema_and_revalidation(tmp_path, capsys):
    assert main(["run", "gp", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    trace = read_json(tmp_path / "run_000.json")
    assert set(trace) == RUN_KEYS
    assert trace["experiment"] == "gp"
    assert trace["seed"] == 0
    assert trace["schedule"] == "baritompa"
    assert isinstance(trace["converged"], bool)

    objective = get_objective("gp")
    layout = cli.build_layout(cli.DEFAULT_CONFIGS["gp"])
    threshold = math.inf
    total = 0
    for i, rec in enumerate(trace["rounds"]):
        assert set(rec) == ROUND_KEYS
        assert rec["round"] == i + 1
        assert isinstance(rec["extended"], bool)
        # every recorded value re-validates against the objective
        assert objective(*layout.decode(rec["index"])) == pytest.approx(rec["value"], abs=1e-12)
        threshold = min(threshold, rec["value"])
        assert rec["threshold"] == threshold
        total += rec["iterations"]
    assert trace["total_iterations"] == total
    assert trace["best_value"] == min(r["value"] for r in trace["rounds"])
    assert objective(*trace["best_point"]) == pytest.approx(
        trace["best_value"], abs=1e-12
    )


def test_run_booleans_serialized_as_json_bools(tmp_path, capsys):
    main(["run", "gp", "--out", str(tmp_path)])
    capsys.readouterr()
    text = (tmp_path / "run_000.json").read_text()
    assert '"converged":true' in text
    assert '"extended":false' in text


def test_run_output_is_byte_deterministic(tmp_path, capsys):
    main(["run", "gp", "--seed", "5", "--out", str(tmp_path / "a")])
    main(["run", "gp", "--seed", "5", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    a = (tmp_path / "a" / "run_000.json").read_bytes()
    b = (tmp_path / "b" / "run_000.json").read_bytes()
    assert a == b


#: The leading 16 hex digits of the sha256 of each seeded artifact.  Reruns
#: agree within one version (above); these pins hold the bytes across versions,
#: so a change to the search, the decoding or the writer shows here.
ARTIFACT_SHA256 = {
    "ensemble gp --runs 20 --seed 3": {"ensemble.json": "e9bbcfe091bb6de3"},
    "ensemble lj-trimer --runs 20 --seed 3": {"ensemble.json": "dff723502bc5c26e"},
    "run gp --runs 2 --seed 5": {
        "run_000.json": "86cb4825d004c480",
        "run_001.json": "550ef2587e005507",
    },
    "run lj-trimer --runs 2 --seed 5": {
        "run_000.json": "c25429c5d4d2fc7d",
        "run_001.json": "4d5e01812d5748b7",
    },
    "run shubert-pivot --runs 2 --seed 5": {
        "run_000.json": "b3652e81cbdb595a",
        "run_001.json": "2e86672d19ef36d3",
    },
    "run lj-grow --runs 2 --seed 5": {
        "run_000.json": "e030e0b3bc2a9c87",
        "run_001.json": "129caf8eb7aa37d0",
    },
}


@pytest.mark.parametrize("command", list(ARTIFACT_SHA256))
def test_seeded_artifacts_are_pinned(command, tmp_path, capsys):
    assert main(command.split() + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in ARTIFACT_SHA256[command].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16] == digest, name


def test_run_seed_changes_stream(tmp_path, capsys):
    main(["run", "gp", "--seed", "1", "--out", str(tmp_path / "a")])
    main(["run", "gp", "--seed", "2", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    a = (tmp_path / "a" / "run_000.json").read_bytes()
    b = (tmp_path / "b" / "run_000.json").read_bytes()
    assert a != b


def test_run_multiple_runs_write_numbered_files(tmp_path, capsys):
    assert main(["run", "gp", "--runs", "3", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("experiment=gp") == 3
    names = sorted(p.name for p in tmp_path.glob("run_*.json"))
    assert names == ["run_000.json", "run_001.json", "run_002.json"]
    for run_id, name in enumerate(names):
        trace = read_json(tmp_path / name)
        assert trace["run_id"] == run_id
        assert trace["seed"] == 0  # base seed; streams are split from it
    assert (tmp_path / "run_000.json").read_bytes() != (
        tmp_path / "run_001.json"
    ).read_bytes()


def test_run_schedule_flag_override(tmp_path, capsys):
    assert main(
        ["run", "gp", "--schedule", "constant:2", "--out", str(tmp_path)]
    ) == 0
    capsys.readouterr()
    trace = read_json(tmp_path / "run_000.json")
    assert trace["schedule"] == "constant:2"
    assert all(rec["iterations"] == 2 for rec in trace["rounds"])


def test_run_emit_distributions(tmp_path, capsys):
    assert main(
        ["run", "gp", "--out", str(tmp_path), "--emit-distributions"]
    ) == 0
    capsys.readouterr()
    trace = read_json(tmp_path / "run_000.json")
    dists = sorted(tmp_path.glob("dist_run000_round*.csv"))
    assert len(dists) == len(trace["rounds"])

    lines = dists[0].read_text().splitlines()
    assert lines[0] == "index,x1,x2,value,probability"
    assert len(lines) == 1 + 1024
    # round 1 applies zero amplification steps: exactly uniform
    probs = [float(line.split(",")[4]) for line in lines[1:]]
    assert set(probs) == {0.0009765625}
    assert lines[1 + 523] == "523,0.0,-1.0,3.0,0.0009765625"


def row_wise_distribution_csv(marked, probabilities, layout, values):
    """The CSV emit_distribution wrote when it formatted row by row, cell by cell."""
    a, b = probabilities
    header = ["index"] + [v.name for v in layout.variables] + ["value", "probability"]
    lines = [",".join(header)]
    idx = np.arange(layout.size)
    columns = (layout.decode_batch(idx).tolist(), values.tolist(), marked.tolist())
    for i, point, value, is_marked in zip(idx.tolist(), *columns):
        row = [i, *point, value, a if is_marked else b]
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def test_emit_distribution_matches_the_row_wise_formatter(monkeypatch, tmp_path):
    # A block size that divides nothing, so rounds span several partial blocks.
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 300)
    setup = cli.build_setup(cli.DEFAULT_CONFIGS["gp"])
    values = setup.layout.objective_values(setup.objective)
    result = adapted_grover_min(
        setup.objective, setup.layout, setup.schedule, setup.stop,
        np.random.default_rng(0), values=values,
    )
    distinct = set()
    for record, marked, probabilities in round_states(values, setup.layout, result.trace):
        path = tmp_path / f"round{record.round}.csv"
        cli.emit_distribution(marked, probabilities, setup.layout, values, path)
        expected = row_wise_distribution_csv(marked, probabilities, setup.layout, values)
        assert path.read_text() == expected
        distinct.add(len(set(np.where(marked, *probabilities).tolist())))
    assert distinct == {1, 2}  # uniform rounds and amplified rounds


@pytest.mark.parametrize("experiment", ["gp", "lj-trimer"])
def test_emit_distributions_reads_the_sampler_probabilities(
    experiment, monkeypatch, tmp_path, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("a run built a dense register")

    with monkeypatch.context() as patched:
        patched.setattr(statevector, "iterate", refuse)
        patched.setattr(minsearch, "iterate", refuse)
        patched.setattr(minsearch, "uniform_superposition", refuse)
        patched.setattr(minsearch, "MarkedSet", refuse)
        patched.setattr(statevector.Statevector, "__init__", refuse)
        argv = ["run", experiment, "--runs", "2", "--out", str(tmp_path), "--emit-distributions"]
        assert main(argv) == 0
    capsys.readouterr()
    # Each round's column is the repr of the (a, b) grover.sample drew from,
    # and the dense register, rebuilt here as the oracle, agrees with it.
    setup = cli.build_setup(cli.DEFAULT_CONFIGS[experiment])
    values = setup.layout.objective_values(setup.objective)
    n, size = setup.layout.total_qubits, setup.layout.size
    amplified = 0
    for run_id in range(2):
        threshold = math.inf
        for rec in read_json(tmp_path / f"run_{run_id:03d}.json")["rounds"]:
            mask, k = values <= threshold, rec["iterations"]
            a, b = class_probabilities(int(mask.sum()), size, k)
            path = tmp_path / f"dist_run{run_id:03d}_round{rec['round']:03d}.csv"
            column = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
            assert column == [repr(a) if m else repr(b) for m in mask.tolist()]
            dense = iterate(uniform_superposition(n), MarkedSet(n, mask), k).probabilities()
            assert 0.5 * np.abs(np.array(column, dtype=float) - dense).sum() <= 1e-12
            amplified += k > 0 and a != b
            threshold = rec["threshold"]
    assert amplified


def test_writing_a_round_allocates_less_than_a_register(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 1024)
    objective, layout = get_objective("gp"), square_layout(["x1", "x2"], -3.2, 3.0, 8)
    values = layout.objective_values(objective)
    result = adapted_grover_min(
        objective, layout, Schedule("constant", constant=2),
        StopRule(stall_window=None, max_rounds=2), np.random.default_rng(0), values=values,
    )
    # Round 2 amplifies the cells under round 1's value.
    trace = SearchTrace(result.trace.rounds[1:])
    tracemalloc.start()
    try:
        for record, marked, probabilities in round_states(values, layout, trace):
            assert record.iterations == 2 and 0 < marked.sum() < layout.size
            cli.emit_distribution(marked, probabilities, layout, values, tmp_path / "round.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * layout.size  # one complex128 register of 2**16 amplitudes


def test_writing_a_round_holds_one_small_block_of_rows(tmp_path):
    # The default block: one 8+8 round is 16 blocks of 4096 rows.  The texts of
    # a 65536-row block took 21.4 MiB while they were joined.
    objective, layout = get_objective("gp"), square_layout(["x1", "x2"], -3.2, 3.0, 8)
    values = layout.objective_values(objective)
    marked = values <= np.quantile(values, 0.01)
    assert layout.size == 16 * cli.CSV_BLOCK_ROWS
    tracemalloc.start()
    try:
        cli.emit_distribution(marked, (0.002, 1e-7), layout, values, tmp_path / "round.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_emit_distributions_without_out_exits_2_before_any_grid(capsys, refuse_allocation):
    assert main(["run", "gp", "--emit-distributions"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --emit-distributions needs --out\n"


@pytest.mark.parametrize("experiment", ["gp", "lj-trimer"])
def test_round_points_are_decoded_from_round_indices(experiment, tmp_path, capsys):
    # A round records its grid cell, not its point: the point is
    # layout.decode(index), and the cell's value is the round's value.
    assert main(["run", experiment, "--runs", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    setup = cli.build_setup(cli.DEFAULT_CONFIGS[experiment])
    layout, values = setup.layout, setup.layout.objective_values(setup.objective)
    # The end levels decode to the bounds exactly (lj-trimer's angle to math.pi).
    assert layout.decode(0) == tuple(v.lo for v in layout.variables)
    assert layout.decode(layout.size - 1) == tuple(v.hi for v in layout.variables)
    paths = sorted(tmp_path.glob("run_*.json"))
    assert len(paths) == 2
    for path in paths:
        trace = read_json(path)
        for rec in trace["rounds"]:
            assert type(rec["index"]) is int and 0 <= rec["index"] < layout.size
            assert rec["value"] == values[rec["index"]]
        assert tuple(trace["best_point"]) == layout.decode(trace["best_index"])


def test_distribution_probabilities_sum_to_one(tmp_path, capsys):
    main(["run", "gp", "--out", str(tmp_path), "--emit-distributions"])
    capsys.readouterr()
    for path in tmp_path.glob("dist_run000_round*.csv"):
        rows = path.read_text().splitlines()[1:]
        total = sum(float(r.split(",")[4]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_brute_gp_stdout(capsys):
    assert main(["brute", "gp"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "experiment": "gp",
        "index": 523,
        "num_evaluations": 1024,
        "point": [0.0, -1.0],
        "value": 3.0,
    }


def test_brute_lj_trimer(tmp_path, capsys):
    assert main(["brute", "lj-trimer", "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_evaluations"] == 512
    assert payload["value"] == pytest.approx(-2.909406055942051, abs=1e-12)
    assert read_json(tmp_path / "brute.json") == payload


def test_ensemble_gp_artifacts(tmp_path, capsys):
    assert main(
        ["ensemble", "gp", "--runs", "5", "--seed", "7", "--out", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert out.startswith("experiment=gp runs=5 success_fraction=")

    payload = read_json(tmp_path / "ensemble.json")
    assert set(payload) == ENSEMBLE_KEYS
    assert payload["runs"] == 5
    assert payload["seed"] == 7
    assert payload["reference_value"] == 3.0
    assert len(payload["runs_detail"]) == 5
    assert sum(payload["rounds_histogram"].values()) == 5
    assert [d["run_id"] for d in payload["runs_detail"]] == [0, 1, 2, 3, 4]

    lines = (tmp_path / "rounds_histogram.csv").read_text().splitlines()
    assert lines[0] == "bin,count"
    csv_hist = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
    assert csv_hist == payload["rounds_histogram"]


def test_ensemble_detail_matches_run_artifacts(tmp_path, capsys):
    main(["ensemble", "gp", "--runs", "2", "--seed", "3", "--out", str(tmp_path / "e")])
    main(["run", "gp", "--runs", "2", "--seed", "3", "--out", str(tmp_path / "r")])
    capsys.readouterr()
    detail = read_json(tmp_path / "e" / "ensemble.json")["runs_detail"]
    for run_id in (0, 1):
        single = read_json(tmp_path / "r" / f"run_{run_id:03d}.json")
        assert detail[run_id] == single


def reference_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "appendix-demo"],
        ["run", "gp", "--runs", "2"],
        ["run", "lj-trimer"],
        ["run", "shubert-pivot"],
        ["run", "lj-grow"],
        ["brute", "gp"],
        ["brute", "lj-trimer"],
        ["ensemble", "gp", "--runs", "5"],
        ["ensemble", "lj-trimer", "--runs", "5"],
        ["ensemble", "gp", "--runs", "100"],
    ],
    ids=[
        "appendix-demo",
        "run-gp",
        "run-lj-trimer",
        "run-shubert-pivot",
        "run-lj-grow",
        "brute-gp",
        "brute-lj-trimer",
        "ensemble-gp",
        "ensemble-lj-trimer",
        "ensemble-gp-100",
    ],
)
def test_every_json_artifact_is_what_json_dumps_writes(argv, monkeypatch, tmp_path, capsys):
    written = []
    write_json = cli.write_json

    def recording(path, obj):
        write_json(path, obj)
        written.append((path, obj))

    monkeypatch.setattr(cli, "write_json", recording)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert written
    for path, obj in written:
        assert path.read_text() == reference_json(obj) + "\n"


def test_ensemble_rejects_pivot_experiment():
    with pytest.raises(SystemExit) as excinfo:
        main(["ensemble", "shubert-pivot"])
    assert excinfo.value.code == 2


def test_appendix_demo_stdout_and_artifact(tmp_path, capsys):
    assert main(["run", "appendix-demo", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "two-qubit demo over the GP corner grid" in out
    assert "uniform state     |s> = [0.5, 0.5, 0.5, 0.5]" in out
    assert "P_s =" in out and "P_t =" in out
    assert "marked index 0 -> point [-3.2, -3.2]" in out
    assert "G|s>   = [1.0, 0.0, 0.0, 0.0]" in out

    demo = read_json(tmp_path / "appendix_demo.json")
    assert [set(v) for v in demo["layout"]] == [LAYOUT_KEYS, LAYOUT_KEYS]
    assert demo["marked_index"] == 0
    assert demo["marked_point"] == [-3.2, -3.2]
    assert demo["uniform"] == [0.5, 0.5, 0.5, 0.5]
    assert demo["after_phase_flip"] == [-0.5, 0.5, 0.5, 0.5]
    assert demo["final"] == [1.0, 0.0, 0.0, 0.0]
    np.testing.assert_allclose(demo["p_s"], np.full((4, 4), 0.5) - np.eye(4))
    np.testing.assert_allclose(demo["p_t"], np.diag([-1.0, 1.0, 1.0, 1.0]))
    # the corner grid values come straight from the objective
    objective = get_objective("gp")
    for point, value in zip(demo["grid_points"], demo["grid_values"]):
        assert objective(*point) == pytest.approx(value, abs=1e-9)


def test_run_shubert_pivot_artifact(tmp_path, capsys):
    assert main(["run", "shubert-pivot", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("experiment=shubert-pivot run=0 best=")
    result = read_json(tmp_path / "run_000.json")
    assert set(result) == PIVOT_RUN_KEYS
    assert all(set(g) == GENERATION_KEYS for g in result["generations"])
    assert result["experiment"] == "shubert-pivot"
    assert result["qubits"] == 10
    assert result["box"] == [[-10.0, 10.0], [-10.0, 10.0]]
    assert isinstance(result["converged"], bool)

    gens = result["generations"]
    assert gens[0]["generation"] == 1
    assert all(g["num_pivots"] == 154 for g in gens)
    assert result["total_iterations"] == sum(g["grover_iterations"] for g in gens)
    bests = [g["best_value"] for g in gens]
    assert all(a >= b for a, b in zip(bests, bests[1:]))

    objective = get_objective("shubert")
    assert objective(*result["best_point"]) == pytest.approx(
        result["best_value"], abs=1e-9
    )


def test_run_lj_grow_artifact(tmp_path, capsys):
    assert main(["run", "lj-grow", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for atoms in (3, 4, 5):
        assert f"experiment=lj-grow run=0 atoms={atoms} energy=" in out
    assert "final_energy=" in out

    result = read_json(tmp_path / "run_000.json")
    assert result["experiment"] == "lj-grow"
    assert result["method"] == 2
    assert [s["num_atoms"] for s in result["stages"]] == [3, 4, 5]
    assert result["stages"][0]["box"] == [[0.0001, 2.0], [0.0001, math.pi]]
    for stage in result["stages"]:
        assert isinstance(stage["search_converged"], bool)
        assert len(stage["positions"]) == stage["num_atoms"]
    assert result["final_energy"] == result["stages"][-1]["energy"]
    assert result["final_energy"] < -8.5
    assert np.asarray(result["final_positions"]).shape == (5, 3)
    assert result["total_iterations"] == sum(
        s["search_iterations"] for s in result["stages"]
    )


PINNED_STDOUT = {
    "run appendix-demo": """\
two-qubit demo over the GP corner grid
uniform state     |s> = [0.5, 0.5, 0.5, 0.5]
P_s =
  [-0.50   0.50   0.50   0.50]
  [ 0.50  -0.50   0.50   0.50]
  [ 0.50   0.50  -0.50   0.50]
  [ 0.50   0.50   0.50  -0.50]
P_t =
  [-1.00   0.00   0.00   0.00]
  [ 0.00   1.00   0.00   0.00]
  [ 0.00   0.00   1.00   0.00]
  [ 0.00   0.00   0.00   1.00]
marked index 0 -> point [-3.2, -3.2]
P_t|s> = [-0.5, 0.5, 0.5, 0.5]
G|s>   = [1.0, 0.0, 0.0, 0.0]
""",
    "run gp --runs 2": """\
experiment=gp run=0 best=3.0 point=(0.0, -1.0) rounds=27 total_iterations=107 converged=True
experiment=gp run=1 best=3.0 point=(0.0, -1.0) rounds=28 total_iterations=112 converged=True
""",
    "brute gp": """\
{"experiment": "gp", "index": 523, "num_evaluations": 1024, "point": [0.0, -1.0], "value": 3.0}
""",
    "ensemble gp --runs 5": (
        "experiment=gp runs=5 success_fraction=0.8 mean_rounds=22.6 median_rounds=27.0 "
        "mean_total_iterations=76.4 median_total_iterations=107.0 mean_iterations_to_best=35.6\n"
    ),
    "run lj-grow --seed 5 --runs 2": """\
experiment=lj-grow run=0 atoms=3 energy=-2.999999999999279
experiment=lj-grow run=0 atoms=4 energy=-5.999999999988723
experiment=lj-grow run=0 atoms=5 energy=-9.103154365142725
experiment=lj-grow run=0 final_energy=-9.103154365142725 total_iterations=81872.55298933564
experiment=lj-grow run=1 atoms=3 energy=-2.999999999999961
experiment=lj-grow run=1 atoms=4 energy=-5.999999761442192
experiment=lj-grow run=1 atoms=5 energy=-9.103135288727037
experiment=lj-grow run=1 final_energy=-9.103135288727037 total_iterations=53746.26777871349
""",
    "run shubert-pivot --seed 5 --runs 2": (
        "experiment=shubert-pivot run=0 best=-186.73052644488743 "
        "point=(5.4825899822804915, -7.708009177996362) generations=49 "
        "total_iterations=13645.425498222576 converged=True\n"
        "experiment=shubert-pivot run=1 best=-186.73090883017994 "
        "point=(-7.083506385382786, -7.708313134187301) generations=142 "
        "total_iterations=39543.88613770629 converged=True\n"
    ),
}


@pytest.mark.parametrize("command", list(PINNED_STDOUT))
@pytest.mark.parametrize("with_out", [False, True])
def test_stdout_is_pinned(command, with_out, tmp_path, capsys):
    # Whole text, line order included; writing under --out changes none of it.
    argv = command.split() + (["--out", str(tmp_path / "out")] if with_out else [])
    assert main(argv) == 0
    assert capsys.readouterr() == (PINNED_STDOUT[command], "")


@pytest.mark.parametrize("command", ["run", "ensemble"])
def test_search_traces_are_built_only_to_be_written(command, monkeypatch, capsys):
    # Without --out nothing reads the traces.
    def refuse(*args, **kwargs):
        raise AssertionError("built a trace that nothing writes")

    monkeypatch.setattr(cli, "search_result_json", refuse)
    assert main([command, "gp", "--runs", "2"]) == 0
    assert capsys.readouterr().out.startswith("experiment=gp run")


def test_config_file_overrides(tmp_path, capsys):
    config = tmp_path / "gp.json"
    # A target needs a bound beside it; the run reaches 3.0 long before 500 rounds.
    stop = {"target": 3.0, "stall_window": None, "max_rounds": 500}
    config.write_text(json.dumps({"stop": stop}))
    assert main(
        ["run", "gp", "--config", str(config), "--out", str(tmp_path)]
    ) == 0
    capsys.readouterr()
    trace = read_json(tmp_path / "run_000.json")
    assert trace["converged"] is True
    assert trace["best_value"] == 3.0
    assert trace["rounds"][-1]["value"] == 3.0


def test_config_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"bogus": 1}))
    assert main(["run", "gp", "--config", str(config)]) == 2
    assert "config error: unknown config key 'bogus'" in capsys.readouterr().err


def test_config_unknown_nested_key_has_dotted_path(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"stop": {"weird": 1}}))
    assert main(["run", "gp", "--config", str(config)]) == 2
    assert "unknown config key 'stop.weird'" in capsys.readouterr().err


def test_config_experiment_mismatch(tmp_path, capsys):
    config = tmp_path / "other.json"
    config.write_text(json.dumps({"experiment": "lj-trimer"}))
    assert main(["run", "gp", "--config", str(config)]) == 2
    assert "is for experiment 'lj-trimer', not 'gp'" in capsys.readouterr().err


def test_config_json_error_reports_line_and_column(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{\n  "seed": ,\n}\n')
    assert main(["run", "gp", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{config}:2:" in err


def test_config_missing_file(capsys):
    assert main(["run", "gp", "--config", "/nonexistent/nope.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_top_level_must_be_object(tmp_path, capsys):
    config = tmp_path / "arr.json"
    config.write_text("[1, 2]")
    assert main(["run", "gp", "--config", str(config)]) == 2
    assert "top level must be an object" in capsys.readouterr().err


def test_runs_flag_rejected_where_unsupported(capsys):
    assert main(["run", "appendix-demo", "--runs", "2"]) == 2
    assert "takes no --runs" in capsys.readouterr().err


def test_seed_flag_rejected_by_appendix_demo(tmp_path, capsys):
    argv = ["run", "appendix-demo", "--seed", "7", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: experiment 'appendix-demo' takes no --seed\n"
    assert main([*argv, "--emit-distributions"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["appendix-demo", "shubert-pivot", "lj-grow"])
def test_emit_distributions_rejected_outside_grid_experiments(experiment, tmp_path, capsys):
    argv = ["run", experiment, "--emit-distributions", "--out", str(tmp_path / "d")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: experiment {experiment!r} takes no --emit-distributions\n"
    assert not (tmp_path / "d").exists()


def test_brute_takes_no_seed_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["brute", "gp", "--seed", "5"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_brute_checks_the_config_seed(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"seed": -1}))
    assert main(["brute", "gp", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "config error: seed must be an integer in [0, 2**64), got -1\n"


def test_schedule_flag_rejected_where_unsupported(capsys):
    assert main(["run", "shubert-pivot", "--schedule", "baritompa"]) == 2
    assert "takes no --schedule" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ensemble", "gp", "--runs", "0"], "runs must be an integer >= 1, got 0"),
        (["run", "gp", "--runs", "0"], "runs must be an integer >= 1, got 0"),
        (["run", "gp", "--seed", "-1"], "seed must be an integer in [0, 2**64), got -1"),
        (["run", "gp", "--seed", str(2**64)], f"seed must be an integer in [0, 2**64), got {2**64}"),
    ],
)
def test_bad_runs_or_seed_flag_exits_2(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ({"runs": 0}, "runs must be an integer >= 1, got 0"),
        ({"runs": True}, "runs must be an integer >= 1, got True"),
        ({"seed": -1}, "seed must be an integer in [0, 2**64), got -1"),
        ({"seed": 1.5}, "seed must be an integer in [0, 2**64), got 1.5"),
    ],
)
def test_bad_runs_or_seed_in_config_exits_2(override, message, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(override))
    for command in ("run", "ensemble"):
        assert main([command, "gp", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_largest_seed_is_accepted(capsys):
    assert main(["run", "gp", "--seed", str(2**64 - 1)]) == 0
    assert "experiment=gp run=0" in capsys.readouterr().out


@pytest.fixture
def refuse_allocation(monkeypatch):
    """Every call that would build a full grid or probe set fails the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the register check")

    monkeypatch.setattr(GridLayout, "all_points", refuse)
    monkeypatch.setattr(Objective, "batch", refuse)
    monkeypatch.setattr(pivot, "generate_probes", refuse)


#: The message ``VariableSpec`` refuses a variable name with.
NAME_RULE = "variable name must be a non-empty string without ',', '\"' or a line break"
GP_X2 = {"name": "x2", "lo": -3.2, "hi": 3.0, "qubits": 3}


def gp_layout(**first):
    """A ``gp`` override whose first variable is x1 with ``first`` set on it."""
    return {"layout": [{"name": "x1", "lo": -3.2, "hi": 3.0, "qubits": 3, **first}, GP_X2]}


WIDE_GP = {
    "layout": [
        {"name": "x1", "lo": -3.2, "hi": 3.0, "qubits": 13},
        {"name": "x2", "lo": -3.2, "hi": 3.0, "qubits": 13},
    ]
}


@pytest.mark.parametrize(
    "argv, override, qubits",
    [
        (["run", "gp"], WIDE_GP, 26),
        (["ensemble", "gp"], WIDE_GP, 26),
        (["brute", "gp"], WIDE_GP, 26),
        (["run", "shubert-pivot"], {"qubits": 30}, 30),
        (["run", "lj-grow"], {"growth": {"bond": 1.0, "qubits_per_axis": 13}}, 26),
        (["run", "lj-grow"], {"growth": {"qubits_per_axis": 13}}, 26),
    ],
)
def test_oversized_register_exits_2_before_allocating(
    argv, override, qubits, tmp_path, capsys, refuse_allocation
):
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(override))
    assert main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {qubits} qubits exceeds the register cap of 24\n"


@pytest.mark.parametrize(
    "experiment, override, message",
    [
        ("gp", {"objective": "nope"}, "unknown objective 'nope'"),
        ("shubert-pivot", {"objective": "nope"}, "unknown objective 'nope'"),
        ("shubert-pivot", {"qubits": 0}, "qubits must be an integer >= 1, got 0"),
        ("shubert-pivot", {"qubits": "ten"}, "qubits must be an integer >= 1, got 'ten'"),
        ("shubert-pivot", {"box": [[-10, 10]]}, "box has 1 axes, objective takes 2"),
        ("shubert-pivot", {"box": "x"}, "box must be a list of [lo, hi] pairs, got 'x'"),
        ("lj-grow", {"growth": {"target_atoms": 7}}, "target_atoms must be 4 or 5, got 7"),
        ("gp", {"schedule": 5}, "schedule must be a string or a list, got 5"),
        ("gp", {"strict": "no"}, "strict must be true or false, got 'no'"),
        (
            "lj-grow",
            {"growth": {"target_atoms": 4.9}},
            "growth.target_atoms must be an integer >= 1, got 4.9",
        ),
        ("shubert-pivot", {"qubits": 6.7}, "qubits must be an integer >= 1, got 6.7"),
        (
            "shubert-pivot",
            {"pivot": {"max_generations": 2.5}},
            "pivot.max_generations must be an integer >= 1, got 2.5",
        ),
        (
            "lj-grow",
            {"growth": {"qubits_per_axis": 2.5}},
            "growth.qubits_per_axis must be an integer >= 1, got 2.5",
        ),
        ("gp", {"stop": {"max_rounds": 2.5}}, "stop.max_rounds must be an integer >= 1, got 2.5"),
        ("gp", {"layout": 5}, "layout must be a list of variables, got 5"),
        ("gp", {"objective": [1]}, "unknown objective [1]"),
        ("gp", {"schedule": [1, None]}, "schedule entries must be integers, got [1, None]"),
        ("shubert-pivot", {"pivot": {"kT": math.nan}}, "kT must be a number, got nan"),
        ("shubert-pivot", {"pivot": {"sigma_scale": math.nan}}, "sigma_scale must be a number"),
        ("shubert-pivot", {"pivot": {"sigma_decay": math.nan}}, "sigma_decay must be a number"),
        ("shubert-pivot", {"pivot": {"sigma_floor": math.nan}}, "sigma_floor must be a number"),
        ("shubert-pivot", {"pivot": {"stall_tol": math.nan}}, "stall_tol must be a number"),
        ("lj-grow", {"pivot": {"kT": math.nan}}, "kT must be a number, got nan"),
        ("lj-grow", {"growth": {"bond": math.nan}}, "bond must be positive, got nan"),
        ("gp", {"stop": {"target": math.nan}}, "target must be a number, got nan"),
        (
            "gp",
            {"schedule": [True, False, True]},
            "schedule entries must be integers, got [True, False, True]",
        ),
        ("shubert-pivot", {"pivot": {"sigma_scale": math.inf}}, "sigma_scale must be finite"),
        ("shubert-pivot", {"pivot": {"sigma_floor": -1.0}}, "sigma_floor must be >= 0, got -1.0"),
        (
            "shubert-pivot",
            {"box": [[-math.inf, math.inf], [-10, 10]]},
            "box bounds must be finite, got [-inf, inf]",
        ),
        ("lj-grow", {"growth": {"bond": math.inf}}, "bond must be finite, got inf"),
        ("lj-grow", {"pivot": {"elitism": "no"}}, "pivot.elitism must be true or false, got 'no'"),
        (
            "shubert-pivot",
            {"pivot": {"elitism": 0}},
            "pivot.elitism must be true or false, got 0",
        ),
        (
            "lj-grow",
            {"growth": {"mirror_fifth": "false"}},
            "growth.mirror_fifth must be true or false, got 'false'",
        ),
        ("shubert-pivot", {"pivot": {"sigma_floor": math.inf}}, "sigma_floor must be finite"),
        ("lj-grow", {"pivot": {"sigma_floor": math.inf}}, "sigma_floor must be finite"),
        (
            "gp",
            {
                "layout": [
                    {"name": "x1", "lo": -1e308, "hi": 1e308, "qubits": 3},
                    {"name": "x2", "lo": -3.2, "hi": 3.0, "qubits": 3},
                ]
            },
            "x1: width hi - lo overflows, got [-1e+308, 1e+308]",
        ),
        ("shubert-pivot", {"pivot": {"stall_tol": -1.0}}, "stall_tol must be >= 0, got -1.0"),
        (
            "lj-trimer",
            {"stop": {"stall_window": None, "target": -3.0}},
            "stop needs stall_window or max_rounds; a target alone may never be reached",
        ),
        (
            "shubert-pivot",
            {"pivot": {"stall_generations": True}},
            "pivot.stall_generations must be an integer >= 1, got True",
        ),
        ("lj-grow", {"growth": {"method": True}}, "growth.method must be an integer >= 1, got True"),
        (
            "lj-grow",
            {"growth": {"trimer_qubits": 2.5}},
            "growth.trimer_qubits must be an integer >= 1, got 2.5",
        ),
        ("gp", gp_layout(name=[1]), f"{NAME_RULE}, got [1]"),
        ("gp", gp_layout(name=5), f"{NAME_RULE}, got 5"),
        ("gp", gp_layout(name="a,b"), f"{NAME_RULE}, got 'a,b'"),
        ("gp", gp_layout(name='a"b'), f"{NAME_RULE}, got 'a\"b'"),
        ("gp", gp_layout(name="a\nb"), f"{NAME_RULE}, got 'a\\nb'"),
        ("gp", gp_layout(name=""), f"{NAME_RULE}, got ''"),
        ("gp", gp_layout(qbits=7), "unknown config key 'layout[0].qbits'"),
        ("gp", gp_layout(lo="-3.2"), "layout[0].lo must be a number, got '-3.2'"),
        ("gp", gp_layout(hi=True), "layout[0].hi must be a number, got True"),
        ("gp", gp_layout(lo=None), "layout[0].lo must be a number, got None"),
        ("gp", gp_layout(lo=-(10**400)), "layout[0].lo must be finite, got an integer too large"),
        ("gp", {"layout": [5, GP_X2]}, "layout[0] must be an object, got 5"),
        (
            "gp",
            {"layout": [GP_X2, {"name": "x1", "lo": 0.0, "hi": 1.0}]},
            "layout[1] needs the key 'qubits'",
        ),
        ("lj-grow", {"growth": {"trimer_qubits": 1}}, "trimer_qubits must be >= 2, got 1"),
        pytest.param("gp", {"stop": 5}, "stop must be an object, got 5", id="stop-not-object"),
        pytest.param(
            "shubert-pivot", {"pivot": [1]}, "pivot must be an object, got [1]", id="pivot-not-object"
        ),
        # GP overflows on all 8 cells: numpy's warnings must not precede the one line.
        pytest.param(
            "gp",
            {
                "layout": [
                    {"name": "x1", "lo": 1e300, "hi": 1.0000001e300, "qubits": 2},
                    {"name": "x2", "lo": -3.2, "hi": 3.0, "qubits": 1},
                ]
            },
            "objective 'gp' gave 8 non-finite values",
            id="gp-overflow",
        ),
    ],
)
def test_bad_config_value_exits_2_with_one_line(
    experiment, override, message, tmp_path, capsys, refuse_allocation
):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(override))
    argv = ["run", experiment, "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()


#: (experiment, section, dataclass) for each config section built by ``cli._build``.
SECTIONS = [
    ("gp", "stop", StopRule),
    ("shubert-pivot", "pivot", PivotConfig),
    ("lj-grow", "growth", GrowthConfig),
    ("gp", "layout[0]", VariableSpec),
]
#: Values each field type refuses: JSON's true is no number, and no JSON value is coerced.
REFUSED = {float: [True, "1.5"], int: [True, 2.5], bool: [0]}


def _typed_field_cases():
    for experiment, section, cls in SECTIONS:
        for name, hint in typing.get_type_hints(cls).items():
            for kind, values in REFUSED.items():
                if hint in (kind, kind | None):
                    for value in values:
                        where = f"{section}.{name}"
                        yield pytest.param(experiment, where, value, id=f"{where}={value!r}")


@pytest.mark.parametrize("experiment, where, value", _typed_field_cases())
def test_every_typed_field_refuses_a_value_of_another_type(
    experiment, where, value, tmp_path, capsys, refuse_allocation
):
    section, name = where.split(".")
    override = gp_layout(**{name: value}) if section == "layout[0]" else {section: {name: value}}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(override))
    argv = ["run", experiment, "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"config error: {where} must be ")
    assert not (tmp_path / "out").exists()


def test_default_sections_hold_exactly_their_dataclass_fields():
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    seen = set()
    for config in cli.DEFAULT_CONFIGS.values():
        expected = {
            "stop": names(StopRule),
            "pivot": names(PivotConfig),
            # GrowthConfig's pivot is its own section; target_atoms goes to lj_growth.
            "growth": names(GrowthConfig) - {"pivot"} | {"target_atoms"},
        }
        for section, keys in expected.items():
            if section in config:
                assert set(config[section]) == keys, section
                seen.add(section)
        for entry in config.get("layout", []):
            assert set(entry) == names(VariableSpec)
            seen.add("layout")
    assert seen == {"stop", "pivot", "growth", "layout"}


@pytest.mark.parametrize(
    "name, message",
    [
        (5, f"{NAME_RULE}, got 5"),
        ("a,b", f"{NAME_RULE}, got 'a,b'"),
        *((name, f"variable name {name!r} is a column of the distribution CSV")
          for name in ("index", "value", "probability")),
    ],
    ids=["5", "a,b", "index", "value", "probability"],
)
def test_bad_variable_name_exits_2_before_any_distribution(name, message, tmp_path, capsys):
    # A number would break the CSV header only after run_000.json and a CSV
    # were written, a comma would add a column to the header and a CSV
    # column's own name would repeat in it: all are refused before any output.
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(gp_layout(name=name)))
    out = tmp_path / "out"
    argv = ["run", "gp", "--config", str(config), "--out", str(out), "--emit-distributions"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "brute"])
@pytest.mark.parametrize(
    "override, message",
    [
        (
            {"schedule": "bogus", "stop": {"stall_window": -3}},
            "unknown schedule 'bogus'; expected baritompa, incremental, or constant:K",
        ),
        ({"stop": {"stall_window": -3}}, "stop.stall_window must be an integer >= 1, got -3"),
        ({"strict": "no"}, "strict must be true or false, got 'no'"),
        (
            {
                "layout": [
                    {"name": "x1", "lo": 0.0, "hi": 5e-324, "qubits": 2},
                    {"name": "x2", "lo": -3.2, "hi": 3.0, "qubits": 3},
                ]
            },
            "x1: step 0 cannot separate the levels of [0.0, 5e-324] on 2 qubits",
        ),
    ],
)
def test_brute_checks_the_search_config_as_run_does(
    command, override, message, tmp_path, capsys, refuse_allocation
):
    # brute reads only the objective and layout, but a file that run refuses
    # is refused by brute too, with the same line.
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(override))
    argv = [command, "gp", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv", [["run", "gp"], ["brute", "gp"], ["ensemble", "gp", "--runs", "3"]]
)
@pytest.mark.parametrize("below", ["", "sub", "sub/deeper"])
def test_out_that_is_no_directory_exits_2_before_any_work(
    argv, below, tmp_path, capsys, refuse_allocation
):
    # A file at --out, or at any existing part of it, is refused before the
    # command runs: no result line, no traceback, nothing created.
    blocker = tmp_path / "taken"
    blocker.write_text("x")
    out = blocker / below if below else blocker
    assert main(argv + ["--out", str(out)]) == 2
    message = f"config error: --out {out}: {blocker} is not a directory\n"
    assert capsys.readouterr() == ("", message)
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "x"


@pytest.mark.parametrize("command", ["run", "ensemble", "brute"])
def test_layout_arity_mismatch_exits_2_before_evaluating(
    command, tmp_path, capsys, refuse_allocation
):
    variable = {"lo": -3.2, "hi": 3.0, "qubits": 3}
    config = tmp_path / "three.json"
    config.write_text(json.dumps({"layout": [{"name": n, **variable} for n in ("a", "b", "c")]}))
    assert main([command, "gp", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: objective 'gp' has arity 2, layout has 3\n"


@pytest.mark.filterwarnings("error")
def test_trimer_layout_from_zero_bond_runs_without_warnings(tmp_path, capsys):
    config = tmp_path / "zero.json"
    config.write_text(json.dumps({"layout": [
        {"name": "B", "lo": 0.0, "hi": 2.0, "qubits": 5},
        {"name": "A", "lo": 0.0001, "hi": math.pi, "qubits": 4},
    ]}))
    assert main(["run", "lj-trimer", "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""


def test_grid_scans_never_build_every_point(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built the whole (2**n, d) grid")

    monkeypatch.setattr(GridLayout, "all_points", refuse)
    monkeypatch.setattr(encoding, "BLOCK_ROWS", 100)
    objective, layout = get_objective("gp"), cli.build_layout(cli.DEFAULT_CONFIGS["gp"])
    assert grid_brute_min(objective, layout).value == 3.0
    setup = SearchSetup(objective, layout, Schedule("baritompa"), StopRule())
    assert run_ensemble(setup, 2, base_seed=0).reference_value == 3.0
    adapted_grover_min(objective, layout, setup.schedule, setup.stop, np.random.default_rng(0))
    assert main(["run", "gp", "--out", str(tmp_path)]) == 0
    assert "experiment=gp run=0" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == "grovermin 0.1.0"


def test_subcommand_required():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
