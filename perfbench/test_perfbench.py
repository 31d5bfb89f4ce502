"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times, traced  # noqa: E402


def _span(id, parent, name, start, end, counts=None):
    return Span(id, parent, 0, name, start, end, counts)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans_ = [
        _span(0, -1, "minsearch.adapted_grover_min", 0, 100),
        _span(1, 0, "grover.iterate", 10, 30),
        _span(2, 0, "statevector.sample", 20, 50),  # overlaps its sibling
        _span(3, 2, "encoding.decode", 25, 35),  # grandchild: not the parent's child
        _span(4, 0, "encoding.decode", 90, 120),  # runs past the parent's end
    ]
    assert self_times(spans_) == {0: 50, 1: 20, 2: 20, 3: 10, 4: 30}


def test_layer_metrics_sum_self_time_and_counts_per_layer():
    spans_ = [
        _span(0, -1, "minsearch.adapted_grover_min", 0, 1000,
              {"rounds": 4, "oracle_calls": 6, "improving_rounds": 1}),
        _span(1, 0, "grover.iterate", 100, 400, {"amp_steps": 3000}),
        _span(2, 0, "objectives.batch", 500, 600, {"points": 50, "objective": "gp"}),
    ]
    m = layer_metrics(spans_)
    assert m["minsearch.self_s"] == pytest.approx(600e-9)
    assert m["minsearch.self_us_per_round"] == pytest.approx(0.15)
    assert m["minsearch.improving_round_ratio"] == 0.25
    assert m["grover.iterate.ns_per_amp_step"] == pytest.approx(0.1)
    assert m["grover.iterate.bytes_computed"] == 3000 * spans.BYTES_PER_AMP_STEP
    assert m["objectives.batch.points"] == 50
    assert m["objectives.gp.ns_per_point"] == 2.0
    assert m["pivot.self_s"] == 0 and m["pivot.accepted_draw_ratio"] == 0.0


def test_per_layer_metric_list_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layer_metrics([]))
    assert all(m["unit"] == spans.layer_unit(m["name"]) for m in spec["per_layer"])


def _bindings():
    return [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]


def test_wrappers_are_restored_after_a_traced_block_even_when_it_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            assert all(a is not b for a, b in zip(_bindings(), before))
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_bindings(), before))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_workload_passes_its_checks_and_traces_identically(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, small=True)
    workload.setup()
    before = _bindings()
    tracer = Tracer()
    warm_up, plain, traced_, diffs = run.run_traced(workload, 3, tracer)
    assert all(a is b for a, b in zip(_bindings(), before))
    calibrated = run.run_pass(workload, 3, 0, reference=workload.calibration)
    assert all(r.error is None and r.reference_s > 0 for r in calibrated)
    assert plain and all(r.error is None for r in warm_up + plain + traced_)
    assert len(diffs) == workload.fixed_passes
    assert [r.outcome.fingerprint for r in plain] == [r.outcome.fingerprint for r in traced_]
    assert tracer.spans and all(s.parent < s.id for s in tracer.spans)
    assert {s.op for s in tracer.spans} == set(range(len(traced_)))
    m = layer_metrics(tracer.spans)
    if name == "scan-24q":
        assert m["baseline.grid_brute_min.calls"] == len(traced_)
        assert m["grover.iterate.calls"] == 0
    else:
        assert m["grover.iterate.amp_steps"] > 0
    if name == "pivot-hybrid":
        assert m["minsearch.searches"] == 0 and 0 < m["pivot.accepted_draw_ratio"] <= 1
    if name == "ensemble-10q":
        assert m["cli.write_json.calls"] == len(traced_)
        assert m["minsearch.searches"] == len(traced_) * workload.runs


def test_setup_is_timed_in_a_fresh_process_at_every_fixed_pass_boundary(tmp_path):
    workload = workloads.Scan(tmp_path, small=True)
    workload.setup()
    workload.fixed_passes = 2
    boundaries = []
    records = run.run_passes(workload, 0, workload.fixed_passes, before=boundaries.append)
    assert boundaries == [0, 1, 2] and {r.pass_index for r in records} == {0, 1}
    seconds, ref_s = run.time_setup("scan-24q", reference.SETUP_REFERENCE)
    assert 0 < seconds < 60 and ref_s > 0


class _FakeReference(reference.Reference):
    """Kernel times 1, 2, 3, ... seconds, in call order."""

    def __init__(self):
        super().__init__(1 << 10)
        self.calls = 0

    def time(self):
        self.calls += 1
        return float(self.calls)


def test_each_operation_is_calibrated_by_the_kernel_times_around_it(tmp_path):
    workload = workloads.Scan(tmp_path, small=True)
    workload.setup()
    fake = _FakeReference()
    records = run.run_pass(workload, 0, 0, reference=fake)
    assert fake.calls == len(records) + 1
    assert [r.reference_s for r in records] == [1.5, 2.5, 3.5]
    ref = reference.Reference(1 << 10)
    nominal = ref.nominal_s
    # Each time is scaled by the median kernel time over it and two neighbours a side.
    kernel = [nominal, 2 * nominal, 2 * nominal, 9 * nominal, nominal, nominal]
    assert ref.calibrate([2.0] * 6, kernel) == pytest.approx([1.0, 1.0, 1.0, 1.0, 4 / 3, 2.0])
    assert all(size >= 1 << 10 and reference.Reference(size).time() > 0 for size in reference.NOMINAL_S)


def test_a_wrong_result_counts_as_failed(tmp_path):
    workload = workloads.Scan(tmp_path, small=True)
    workload.setup()
    (kind, call), = workload.ops(0, 0)[:1]
    result = call()
    worse = result.__class__(result.index, result.point, result.value + 1.0, result.num_evaluations)
    assert workload.check(kind, result).problems == []
    assert workload.check(kind, worse).problems


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-24q", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
