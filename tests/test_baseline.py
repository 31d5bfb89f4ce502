"""Classical references: exhaustive scan and zoom refinement."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from grovermin import encoding
from grovermin.baseline import RefinedMinimum, grid_brute_min, refine_min
from grovermin.encoding import (
    MAX_QUBITS,
    GridLayout,
    RegisterTooLarge,
    VariableSpec,
    square_layout,
)
from grovermin.objectives import GOLDSTEIN_PRICE, LJ_TRIMER, SHUBERT, Objective, lj_pair
from test_encoding import EVALUATE_CASES, EVALUATE_IDS

GP_LAYOUT = square_layout(["x", "y"], -3.2, 3.0, 5)
TRIMER_LAYOUT = GridLayout(
    [VariableSpec("B", 0.0001, 2.0, 5), VariableSpec("A", 0.0001, math.pi, 4)]
)


def test_gp_grid_minimum_exact():
    out = grid_brute_min(GOLDSTEIN_PRICE, GP_LAYOUT)
    assert out.index == 523
    assert out.point == (0.0, -1.0)
    assert out.value == 3.0
    assert out.num_evaluations == 1024


def test_trimer_grid_minimum_frozen():
    out = grid_brute_min(LJ_TRIMER, TRIMER_LAYOUT)
    assert out.index == 261
    assert out.value == pytest.approx(-2.909406055942051, abs=1e-12)
    assert out.point == (1.0323064516129032, 1.0472642178632643)
    assert out.num_evaluations == 512


def test_grid_ties_break_to_first_index():
    layout = GridLayout([VariableSpec("t", 0.0, 3.0, 2)])
    table = [3.0, 1.0, 1.0, 2.0]
    objective = Objective(
        "lookup", 1, batch_fn=np.vectorize(lambda t: table[int(round(t))], otypes=[float])
    )
    out = grid_brute_min(objective, layout)
    assert out.index == 1
    assert out.value == 1.0


def test_grid_accepts_precomputed_values():
    values = GOLDSTEIN_PRICE.batch(GP_LAYOUT.all_points())
    out = grid_brute_min(GOLDSTEIN_PRICE, GP_LAYOUT, values=values)
    assert out == grid_brute_min(GOLDSTEIN_PRICE, GP_LAYOUT)
    with pytest.raises(ValueError, match="values must have shape"):
        grid_brute_min(GOLDSTEIN_PRICE, GP_LAYOUT, values=values[:-1])


def test_grid_ties_break_to_index_zero_across_blocks(monkeypatch):
    monkeypatch.setattr(encoding, "BLOCK_ROWS", 100)
    flat = Objective("flat", 2, batch_fn=lambda x, y: np.full(np.broadcast(x, y).shape, 7.0))
    out = grid_brute_min(flat, GP_LAYOUT)
    assert (out.index, out.value, out.num_evaluations) == (0, 7.0, 1024)


@pytest.mark.parametrize("objective, layout, block_rows", EVALUATE_CASES, ids=EVALUATE_IDS)
def test_streaming_minimum_is_the_argmin_of_evaluate(monkeypatch, objective, layout, block_rows):
    monkeypatch.setattr(encoding, "BLOCK_ROWS", block_rows)
    values = layout.objective_values(objective)
    i = int(np.argmin(values))
    out = grid_brute_min(objective, layout)
    assert (out.index, out.value.hex(), out.point) == (i, values[i].hex(), layout.decode(i))


#: Level k of this 10-qubit axis is exactly k, so ``_lookup(table)`` takes
#: the value at index k from ``table``.  With 100 rows a block, the scan
#: walks eleven slabs of 100 cells and one of 24.
LINE = GridLayout([VariableSpec("t", 0.0, 1023.0, 10)])


def _lookup(table):
    return Objective("lookup", 1, batch_fn=lambda t: table[np.rint(t).astype(np.int64)])


@pytest.mark.parametrize(
    "cells, expected",
    [({150: 1.0, 650: 1.0}, 150), ({650: 1.0, 651: 1.0}, 650), ({1020: 0.0, 3: 2.0}, 1020)],
    ids=["tie-across-slabs", "tie-in-a-slab", "last-slab"],
)
def test_streaming_minimum_keeps_the_lowest_index(monkeypatch, cells, expected):
    monkeypatch.setattr(encoding, "BLOCK_ROWS", 100)
    table = np.full(LINE.size, 5.0)
    for k, value in cells.items():
        table[k] = value
    out = grid_brute_min(_lookup(table), LINE)
    assert (out.index, out.value, out.point) == (expected, table[expected], (float(expected),))


def test_streaming_minimum_rejects_a_non_finite_later_slab(monkeypatch):
    monkeypatch.setattr(encoding, "BLOCK_ROWS", 100)
    table = np.arange(LINE.size, dtype=float)
    table[[700, 750]] = [np.nan, np.inf]
    with pytest.raises(ValueError) as evaluated:
        LINE.objective_values(_lookup(table))
    with pytest.raises(ValueError, match="objective 'lookup' gave 2 non-finite values") as scanned:
        grid_brute_min(_lookup(table), LINE)
    assert str(scanned.value) == str(evaluated.value)


@pytest.mark.parametrize("values", [None, np.zeros(LINE.size)], ids=["scan", "given-values"])
def test_grid_rejects_an_arity_mismatch(values):
    with pytest.raises(ValueError, match="objective 'gp' has arity 2, layout has 1"):
        grid_brute_min(GOLDSTEIN_PRICE, LINE, values=values)


@pytest.mark.parametrize("objective", [GOLDSTEIN_PRICE, SHUBERT, LJ_TRIMER], ids=lambda o: o.name)
def test_streaming_minimum_holds_no_values_array(objective):
    # A 10+10 grid's values (8 MiB) would not fit under the bound (4 MiB).
    layout = square_layout(["x", "y"], 0.0, 3.0, 10)
    bound = 8 * encoding.BLOCK_ROWS * 8
    assert layout.size * 8 > bound
    tracemalloc.start()
    try:
        out = grid_brute_min(objective, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_evaluations == layout.size
    assert peak < bound


def brute_keeps_no_values(objective, layout):
    grid_brute_min(objective, layout)
    return 0


#: Each scan, returning the bytes of values it keeps.
SCANS = {
    "grid_brute_min": brute_keeps_no_values,
    "evaluate": lambda objective, layout: layout.objective_values(objective).nbytes,
}


@pytest.mark.parametrize("scan", SCANS)
@pytest.mark.parametrize("objective", [GOLDSTEIN_PRICE, SHUBERT, LJ_TRIMER], ids=lambda o: o.name)
def test_scans_hold_under_four_blocks_beyond_the_values(objective, scan):
    # One block is one slab of float64 values.  A 10+10 scan holds the slab
    # being built and its kernel's full-size arrays: about 3.3 blocks for GP,
    # 2.3 for the trimer and 1.3 for Shubert (5.3, 7.2 and 2.3 when every
    # broadcast step allocated and the previous slab was still held).
    layout = square_layout(["x", "y"], 0.0, 3.0, 10)
    tracemalloc.start()
    try:
        kept = SCANS[scan](objective, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - kept < 4 * 8 * encoding.BLOCK_ROWS


#: The three grids of the 24-qubit scan benchmark at 12+12 qubits and their
#: minima as (index, value.hex()).  Shubert's grid is symmetric under swapping
#: the axes, so its minimum is tied and the pin also checks the lowest index.
SCAN_24Q_PINS = [
    (SHUBERT, square_layout(["x1", "x2"], -10.0, 10.0, 12), 12463202, "-0x1.7574dcd89d672p+7"),
    (GOLDSTEIN_PRICE, square_layout(["x1", "x2"], -3.2, 3.0, 12), 8660397, "0x1.800478988bd87p+1"),
    (
        LJ_TRIMER,
        GridLayout([VariableSpec("B", 0.0001, 2.0, 12), VariableSpec("A", 0.0001, math.pi, 12)]),
        8385877,
        "-0x1.7fffe39077737p+1",
    ),
]


@pytest.mark.parametrize(
    "objective, layout, index, value", SCAN_24Q_PINS, ids=[pin[0].name for pin in SCAN_24Q_PINS]
)
def test_24_qubit_scans_keep_their_minima(objective, layout, index, value):
    out = grid_brute_min(objective, layout)
    assert (out.index, out.value.hex()) == (index, value)
    assert out.point == layout.decode(index)


def test_shubert_24_qubit_minimum_is_tied_with_its_mirror():
    objective, layout, index, value = SCAN_24Q_PINS[0]
    x, y = layout.levels(index)
    mirror = y << 12 | x
    assert mirror > index
    assert layout.decode(mirror) == layout.decode(index)[::-1]
    assert objective(*layout.decode(mirror)).hex() == value


def test_grid_rejects_non_finite_values():
    values = np.full(GP_LAYOUT.size, np.nan)
    with pytest.raises(ValueError, match="objective 'gp' gave 1024 non-finite values"):
        grid_brute_min(GOLDSTEIN_PRICE, GP_LAYOUT, values=values)
    # A factor that overflows on a grid axis is refused without a numpy
    # warning (an error under this suite's filterwarnings).
    overflowing = Objective("exp2", 2, factor=np.exp)
    with pytest.raises(ValueError, match="objective 'exp2' gave 16 non-finite values"):
        grid_brute_min(overflowing, square_layout(["x", "y"], 800.0, 801.0, 2))


def test_grid_refuses_oversized_register():
    with pytest.raises(ValueError, match=f"{MAX_QUBITS + 1} qubits exceeds the register cap"):
        GridLayout([VariableSpec("a", 0.0, 1.0, 13), VariableSpec("b", 0.0, 1.0, MAX_QUBITS - 12)])


def test_refine_refuses_an_oversized_mesh_before_evaluation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the register check")

    monkeypatch.setattr(np, "linspace", refuse)
    monkeypatch.setattr(Objective, "mesh", refuse)
    line = Objective("line", 1, batch_fn=lambda t: t)
    cells = (1 << MAX_QUBITS) + 1
    with pytest.raises(RegisterTooLarge, match=f"{MAX_QUBITS + 1} qubits exceeds the register cap"):
        refine_min(line, [(0.0, 1.0)], points_per_axis=cells)
    # 4096 x 4096 cells fill the register exactly and reach the mesh.
    with pytest.raises(AssertionError, match="allocated before"):
        refine_min(GOLDSTEIN_PRICE, [(-2.0, 2.0), (-2.0, 2.0)], points_per_axis=4096)


def test_refine_gp_reaches_global_minimum():
    out = refine_min(GOLDSTEIN_PRICE, [(-2.0, 2.0), (-2.0, 2.0)])
    assert out.value == pytest.approx(3.0, abs=1e-9)
    assert out.point[0] == pytest.approx(0.0, abs=1e-6)
    assert out.point[1] == pytest.approx(-1.0, abs=1e-6)
    assert out.num_evaluations == 5 * 15 * 15
    assert out.levels == 5


def test_refine_trimer_reaches_pair_limit():
    out = refine_min(LJ_TRIMER, [(0.5, 1.5), (0.5, math.pi)])
    assert out.value == pytest.approx(-3.0, abs=1e-3)


def test_refine_value_monotone_in_levels():
    prev = np.inf
    for levels in range(1, 6):
        out = refine_min(GOLDSTEIN_PRICE, [(-2.0, 2.0), (-2.0, 2.0)], levels=levels)
        assert out.value <= prev + 1e-15
        prev = out.value


def test_refine_respects_original_box():
    # global minimum sits on the corner of this box
    box = [(-1.0, 0.0), (-1.0, 0.0)]
    out = refine_min(GOLDSTEIN_PRICE, box)
    for (lo, hi), x in zip(box, out.point):
        assert lo <= x <= hi
    assert out.value == pytest.approx(GOLDSTEIN_PRICE(0.0, -1.0), abs=1e-9)


def test_refine_counts_evaluations():
    out = refine_min(
        GOLDSTEIN_PRICE, [(-2.0, 2.0), (-2.0, 2.0)], levels=3, points_per_axis=7
    )
    assert out.num_evaluations == 3 * 7 * 7


def test_refine_one_dimensional():
    parabola = np.vectorize(lambda t: (t - 0.3) ** 2, otypes=[float])
    objective = Objective("parabola", 1, batch_fn=parabola)
    out = refine_min(objective, [(0.0, 1.0)])
    assert out.value == pytest.approx(0.0, abs=1e-6)
    assert out.point[0] == pytest.approx(0.3, abs=1e-3)


def _refine_by_product(objective, box, levels=5, points_per_axis=15, zoom=0.25):
    """``refine_min`` written with an explicit (npoints, d) mesh per level."""
    current = list(box)
    best_point, best_value = None, np.inf
    for _ in range(levels):
        axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in current]
        mesh = np.array(list(itertools.product(*axes)))
        vals = objective.batch(mesh)
        i = int(np.argmin(vals))
        if vals[i] < best_value:
            best_value, best_point = float(vals[i]), mesh[i]
        widths = [(hi - lo) * zoom for lo, hi in current]
        current = []
        for (lo0, hi0), w, c in zip(box, widths, best_point):
            lo = min(max(c - w / 2.0, lo0), hi0 - w)
            current.append((lo, lo + w))
    evaluations = levels * points_per_axis ** len(box)
    return RefinedMinimum(tuple(float(x) for x in best_point), best_value, evaluations, levels)


def _bipyramid(a, h):
    return 3 * lj_pair(math.sqrt(3.0) * a) + 6 * lj_pair(math.hypot(a, h)) + lj_pair(2.0 * h)


@pytest.mark.parametrize(
    "objective, box",
    [
        (GOLDSTEIN_PRICE, [(-2.0, 2.0), (-2.0, 2.0)]),
        (SHUBERT, [(-10.0, 10.0), (-10.0, 10.0)]),
        (
            Objective("lj5-bipyramid", 2, batch_fn=np.vectorize(_bipyramid, otypes=[float])),
            [(0.4, 0.8), (0.6, 1.0)],
        ),
    ],
    ids=["gp", "shubert", "scalar-fn"],
)
def test_refine_mesh_matches_the_explicit_product(objective, box):
    assert refine_min(objective, box) == _refine_by_product(objective, box)


def test_refine_validation():
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    with pytest.raises(ValueError, match="levels"):
        refine_min(GOLDSTEIN_PRICE, box, levels=0)
    with pytest.raises(ValueError, match="points_per_axis"):
        refine_min(GOLDSTEIN_PRICE, box, points_per_axis=1)
    for name in ("levels", "points_per_axis"):
        for count in (2.5, 4.0, True):
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {count!r}$"):
                refine_min(GOLDSTEIN_PRICE, box, **{name: count})
    with pytest.raises(ValueError, match="zoom"):
        refine_min(GOLDSTEIN_PRICE, box, zoom=1.0)
    with pytest.raises(ValueError, match="axes"):
        refine_min(GOLDSTEIN_PRICE, [(-1.0, 1.0)])
    with pytest.raises(ValueError, match="degenerate"):
        refine_min(GOLDSTEIN_PRICE, [(-1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError, match="empty box axis"):
        refine_min(GOLDSTEIN_PRICE, [(-1.0, 1.0), (2.0, 1.0)])
    with pytest.raises(ValueError, match="box bounds must be finite"):
        refine_min(GOLDSTEIN_PRICE, [(-1.0, 1.0), (float("nan"), 1.0)])
    with pytest.raises(ValueError, match=r"box must be a list of \[lo, hi\] pairs"):
        refine_min(GOLDSTEIN_PRICE, [(-1.0, 1.0), (None, 1.0)])
