"""Grid codec: endpoint-inclusive levels packed MSB-first into indices."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grovermin import encoding
from grovermin.baseline import grid_brute_min
from grovermin.encoding import GridLayout, VariableSpec, square_layout
from grovermin.objectives import (
    GOLDSTEIN_PRICE,
    LJ_TRIMER,
    SHUBERT,
    Objective,
    build_fixed_core,
    free_atom_objective,
    gp_eval,
    shubert_axis,
)

GP_LAYOUT = square_layout(["x", "y"], -3.2, 3.0, 5)
TRIMER_LAYOUT = GridLayout(
    [VariableSpec("B", 0.0001, 2.0, 5), VariableSpec("A", 0.0001, math.pi, 4)]
)


def test_gp_axis_step_and_levels():
    x = GP_LAYOUT.variables[0]
    assert x.levels == 32
    assert x.step == 0.2
    assert x.level_to_value(16) == 0.0
    assert x.level_to_value(11) == -1.0


def test_gp_encode_decode_minimum_point():
    index, clamped = GP_LAYOUT.encode((0.0, -1.0))
    assert (index, clamped) == (523, False)
    assert GP_LAYOUT.decode(523) == (0.0, -1.0)
    assert GP_LAYOUT.levels(523) == (16, 11)


def test_trimer_decode_frozen():
    assert TRIMER_LAYOUT.levels(261) == (16, 5)
    point = TRIMER_LAYOUT.decode(261)
    assert point == (1.0323064516129032, 1.0472642178632643)


def test_endpoints_are_exact():
    b = TRIMER_LAYOUT.variables[0]
    a = TRIMER_LAYOUT.variables[1]
    assert b.level_to_value(0) == 0.0001
    assert b.level_to_value(31) == 2.0
    assert a.level_to_value(0) == 0.0001
    assert a.level_to_value(15) == math.pi
    pts = a.axis_points()
    assert pts[0] == 0.0001 and pts[-1] == math.pi
    # Here lo + 15*step rounds away from 2.0, so only the snap keeps hi exact.
    snapped = VariableSpec("B", 0.0001, 2.0, 4)
    assert snapped.lo + 15 * snapped.step != 2.0
    assert snapped.axis_points()[-1] == 2.0
    assert GridLayout([snapped]).decode_batch(np.array([15]))[0, 0] == 2.0


def test_axis_points_strictly_increasing():
    for v in (*GP_LAYOUT.variables, *TRIMER_LAYOUT.variables):
        pts = v.axis_points()
        assert pts.shape == (v.levels,)
        assert np.all(np.diff(pts) > 0)


def test_first_variable_in_most_significant_bits():
    layout = GridLayout(
        [VariableSpec("a", 0.0, 1.0, 2), VariableSpec("b", 0.0, 1.0, 3)]
    )
    assert layout.total_qubits == 5
    assert layout.size == 32
    # index = a_level * 8 + b_level
    assert layout.levels(0b10011) == (0b10, 0b011)
    index, _ = layout.encode((layout.variables[0].level_to_value(3), 0.0))
    assert index == 3 << 3


@pytest.mark.parametrize("layout", [GP_LAYOUT, TRIMER_LAYOUT])
def test_round_trip_exhaustive(layout):
    for index in range(layout.size):
        point = layout.decode(index)
        assert layout.encode(point) == (index, False)


def test_decode_batch_matches_scalar_decode():
    idx = np.arange(TRIMER_LAYOUT.size, dtype=np.int64)
    batch = TRIMER_LAYOUT.decode_batch(idx)
    assert batch.shape == (TRIMER_LAYOUT.size, 2)
    for i in (0, 1, 261, TRIMER_LAYOUT.size - 1):
        np.testing.assert_array_equal(batch[i], TRIMER_LAYOUT.decode(i))


def test_all_points_shape_and_order():
    pts = GP_LAYOUT.all_points()
    assert pts.shape == (1024, 2)
    np.testing.assert_array_equal(pts[523], [0.0, -1.0])
    np.testing.assert_array_equal(pts[0], [-3.2, -3.2])
    np.testing.assert_array_equal(pts[-1], [3.0, 3.0])


GRID_5_5 = square_layout(["x", "y"], -3.2, 3.0, 5)
GRID_4_3_3 = GridLayout(
    [
        VariableSpec("x", -1.0, 1.0, 4),
        VariableSpec("y", -1.0, 2.0, 3),
        VariableSpec("z", 0.0, 1.5, 3),
    ]
)
GRID_1_9 = GridLayout([VariableSpec("x", -3.2, 3.0, 1), VariableSpec("y", -3.2, 3.0, 9)])

#: (objective, 1024-cell layout, patched BLOCK_ROWS).  With 100 rows a 5+5
#: grid splits on its leading axis (ten slabs of 96 cells and one of 64); the
#: 4+3+3 grid at 48 rows splits on its middle axis (runs of six y levels and
#: a short run of two); the 1+9 grid's second axis is wider than a block.
EVALUATE_CASES = [
    (GOLDSTEIN_PRICE, GRID_5_5, 100),
    (SHUBERT, square_layout(["x", "y"], -10.0, 10.0, 5), 100),
    # The B = 0 and A = 0 rows hold ENERGY_CAP.
    (
        LJ_TRIMER,
        GridLayout([VariableSpec("B", 0.0, 2.0, 5), VariableSpec("A", 0.0, math.pi, 5)]),
        100,
    ),
    (
        free_atom_objective(build_fixed_core(3, 1.0), pin_x=0.0),
        GridLayout([VariableSpec("y", -1.0, 2.0, 5), VariableSpec("z", 0.0, 1.5, 5)]),
        100,
    ),
    (free_atom_objective(build_fixed_core(4, 1.0)), GRID_4_3_3, 100),
    (free_atom_objective(build_fixed_core(4, 1.0)), GRID_4_3_3, 48),
    (GOLDSTEIN_PRICE, GRID_1_9, 100),
    (
        Objective(
            "gp-scalar", 2, batch_fn=np.vectorize(lambda x, y: float(gp_eval(x, y)), otypes=[float])
        ),
        GRID_5_5,
        100,
    ),
]
EVALUATE_IDS = [
    "gp", "shubert", "lj-trimer", "lj-grow-yz", "lj-grow-xyz",
    "lj-grow-xyz-middle-axis", "gp-wide-axis", "scalar-fn",
]


@pytest.mark.parametrize("objective, layout, block_rows", EVALUATE_CASES, ids=EVALUATE_IDS)
def test_evaluate_in_blocks_is_bitwise_the_whole_batch(monkeypatch, objective, layout, block_rows):
    monkeypatch.setattr(encoding, "BLOCK_ROWS", block_rows)
    assert layout.size == 1024
    values = layout.evaluate(objective)
    assert values.tobytes() == objective.batch(layout.all_points()).tobytes()


@pytest.mark.parametrize("objective, layout, block_rows", EVALUATE_CASES, ids=EVALUATE_IDS)
def test_evaluate_hands_the_objective_per_axis_vectors(monkeypatch, objective, layout, block_rows):
    expected = objective.batch(layout.all_points())
    monkeypatch.setattr(encoding, "BLOCK_ROWS", block_rows)

    def refuse(*args, **kwargs):
        raise AssertionError("the scan decoded grid points")

    monkeypatch.setattr(GridLayout, "decode_batch", refuse)
    monkeypatch.setattr(GridLayout, "all_points", refuse)
    sizes = []

    def spy(*coords):
        sizes.append([np.size(c) for c in coords])
        if objective.factor is None:
            return objective.batch_fn(*coords)
        return math.prod(map(objective.factor, coords))

    values = layout.evaluate(Objective(objective.name, objective.arity, batch_fn=spy))
    assert values.tobytes() == expected.tobytes()
    assert len(sizes) >= layout.size // block_rows
    for call in sizes:
        for size, v in zip(call, layout.variables):
            assert size <= min(block_rows, v.levels)


@pytest.mark.parametrize(
    "layout, block_rows",
    [(GRID_5_5, 32), (GRID_5_5, 100), (GRID_5_5, 1 << 16), (GRID_4_3_3, 48), (GRID_4_3_3, 100)],
    ids=["5+5-32-slabs", "5+5-11-slabs", "5+5-one-slab", "4+3+3-middle-axis", "4+3+3"],
)
def test_product_objective_maps_each_axis_once(monkeypatch, layout, block_rows):
    monkeypatch.setattr(encoding, "BLOCK_ROWS", block_rows)
    calls = []

    def spy(x):
        calls.append(len(x))
        return shubert_axis(x)

    spied = Objective("shubert", layout.arity, factor=spy)
    expected = Objective("shubert", layout.arity, factor=shubert_axis).batch(layout.all_points())
    values = layout.evaluate(spied)
    assert values.tobytes() == expected.tobytes()
    assert calls == [v.levels for v in layout.variables]
    calls.clear()
    out = grid_brute_min(spied, layout)
    assert calls == [v.levels for v in layout.variables]
    assert (out.index, out.value) == (int(np.argmin(values)), values.min())


def test_product_objective_maps_an_axis_longer_than_a_block_by_slab(monkeypatch):
    # The 1+9 grid's second axis (512 levels) is split into runs of 100.
    monkeypatch.setattr(encoding, "BLOCK_ROWS", 100)
    calls = []

    def spy(x):
        calls.append(len(x))
        return shubert_axis(x)

    values = GRID_1_9.evaluate(Objective("shubert", 2, factor=spy))
    assert values.tobytes() == SHUBERT.batch(GRID_1_9.all_points()).tobytes()
    assert calls == [2] + [100, 100, 100, 100, 100, 12] * 2


@pytest.mark.parametrize("objective", [GOLDSTEIN_PRICE, SHUBERT, LJ_TRIMER], ids=lambda o: o.name)
def test_evaluate_holds_the_values_and_a_few_blocks(objective):
    layout = square_layout(["x", "y"], 0.0, 3.0, 9)
    assert layout.size > encoding.BLOCK_ROWS
    tracemalloc.start()
    try:
        values = layout.evaluate(objective)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes + 8 * encoding.BLOCK_ROWS * 8


def test_half_ties_round_up():
    v = VariableSpec("t", 0.0, 2.0, 1)  # levels at 0 and 2, tie at 1
    assert v.value_to_level(1.0) == (1, False)
    assert v.value_to_level(1.0 - 1e-9) == (0, False)


def test_clamping_flags():
    v = GP_LAYOUT.variables[0]
    assert v.value_to_level(-100.0) == (0, True)
    assert v.value_to_level(100.0) == (31, True)
    index, clamped = GP_LAYOUT.encode((-100.0, 0.0))
    assert clamped is True
    assert GP_LAYOUT.levels(index)[0] == 0
    # values too far out for (x - lo) / step to be finite clamp the same way
    v = VariableSpec("x", -1, 1, 3)
    for x, end in [(1e308, 7), (math.inf, 7), (-1e308, 0), (-math.inf, 0)]:
        assert v.value_to_level(x) == (end, True)
    layout = GridLayout([v, VariableSpec("y", -1, 1, 3)])
    assert layout.encode((1e308, 0.0)) == (7 << 3 | 4, True)  # x at its top level, y = 0 at 4
    with pytest.raises(ValueError, match="NaN"):
        v.value_to_level(math.nan)


def test_encode_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        GP_LAYOUT.encode((float("nan"), 0.0))


def test_encode_rejects_wrong_arity():
    with pytest.raises(ValueError, match="expected 2 values"):
        GP_LAYOUT.encode((1.0,))


def test_index_range_checks():
    with pytest.raises(ValueError, match="outside"):
        GP_LAYOUT.decode(1024)
    with pytest.raises(ValueError, match="outside"):
        GP_LAYOUT.levels(-1)
    with pytest.raises(ValueError, match="outside"):
        GP_LAYOUT.variables[0].level_to_value(32)
    with pytest.raises(ValueError, match="register range"):
        GP_LAYOUT.decode_batch(np.array([0, 1024]))


def test_variable_validation():
    with pytest.raises(ValueError, match="qubits"):
        VariableSpec("v", 0.0, 1.0, 0)
    with pytest.raises(ValueError, match="hi must exceed lo"):
        VariableSpec("v", 1.0, 1.0, 2)
    with pytest.raises(ValueError, match="finite"):
        VariableSpec("v", 0.0, float("inf"), 2)
    with pytest.raises(ValueError, match=r"v: width hi - lo overflows, got \[-1e\+308, 1e\+308\]"):
        VariableSpec("v", -1e308, 1e308, 2)
    # Levels that round together: a zero step, then 6 distinct levels of 1024.
    with pytest.raises(ValueError, match=r"v: step 0 cannot separate the levels of \[0.0, 5e-32"):
        VariableSpec("v", 0.0, 5e-324, 2)
    message = r"v: step 1.08526e-18 cannot separate the levels of \[1.0, 1.000000000000001\]"
    with pytest.raises(ValueError, match=message):
        VariableSpec("v", 1.0, 1.0 + 1e-15, 10)


def test_layout_validation():
    with pytest.raises(ValueError, match="at least one"):
        GridLayout([])
    with pytest.raises(ValueError, match="duplicate"):
        square_layout(["x", "x"], 0.0, 1.0, 2)


@given(
    lo=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    width=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    qubits=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(lo, width, qubits, data):
    v = VariableSpec("v", lo, lo + width, qubits)
    k = data.draw(st.integers(min_value=0, max_value=v.levels - 1))
    assert v.value_to_level(v.level_to_value(k)) == (k, False)


@given(
    qubits=st.integers(min_value=1, max_value=6),
    x=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_encode_picks_nearest_level(qubits, x):
    v = VariableSpec("v", -10.0, 10.0, qubits)
    k, clamped = v.value_to_level(x)
    assume(not clamped)
    distances = np.abs(v.axis_points() - x)
    assert distances[k] <= distances.min() + 1e-12
