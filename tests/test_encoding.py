"""Grid codec: endpoint-inclusive levels packed MSB-first into indices."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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


def pack(layout, levels):
    """The register index of per-variable ``levels``, packed with the layout's shifts."""
    index = 0
    for v, k in zip(layout.variables, levels):
        index = index << v.qubits | k
    return index


def test_gp_encode_decode_minimum_point():
    # The minimum (0, -1) sits on levels 16 and 11, which pack to index 523.
    x, y = GP_LAYOUT.variables
    assert (x.axis_points()[16], y.axis_points()[11]) == (0.0, -1.0)
    assert pack(GP_LAYOUT, (16, 11)) == 523
    assert GP_LAYOUT.levels(523) == (16, 11)
    assert GP_LAYOUT.decode(523) == (0.0, -1.0)


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
    assert layout.levels(3 << 3) == (3, 0)
    assert layout.decode(3 << 3) == (1.0, 0.0)
    assert layout.decode(0b00111) == (0.0, 1.0)


@pytest.mark.parametrize("layout", [GP_LAYOUT, TRIMER_LAYOUT])
def test_round_trip_exhaustive(layout):
    # Every index is its levels packed back, and decodes to those levels' axis points.
    axes = [v.axis_points() for v in layout.variables]
    points = layout.decode_batch(np.arange(layout.size))
    for index in range(layout.size):
        levels = layout.levels(index)
        assert pack(layout, levels) == index
        expected = tuple(axis[k] for axis, k in zip(axes, levels))
        assert layout.decode(index) == expected
        assert tuple(points[index]) == expected


SNAPPED_LAYOUT = GridLayout(
    [
        VariableSpec("B", 0.0001, 2.0, 4),  # lo + 15*step != hi: only the snap keeps hi
        VariableSpec("c", -0.7, 0.3, 3),
        VariableSpec("d", 1e-3, 7.1, 2),
    ]
)


def test_decode_batch_matches_scalar_decode():
    # ``decode`` computes in Python floats and ``decode_batch`` in numpy; the
    # two must agree bit for bit at every index, the snapped top level included.
    top = SNAPPED_LAYOUT.variables[0]
    assert top.lo + (top.levels - 1) * top.step != top.hi
    for layout in (TRIMER_LAYOUT, SNAPPED_LAYOUT):
        for v in layout.variables:
            axis = v.level_values(np.arange(v.levels)).tolist()
            assert [v.level_to_value(k).hex() for k in range(v.levels)] == [x.hex() for x in axis]
        batch = layout.decode_batch(np.arange(layout.size, dtype=np.int64))
        assert batch.shape == (layout.size, layout.arity)
        for i, row in enumerate(batch.tolist()):
            assert [x.hex() for x in layout.decode(i)] == [x.hex() for x in row]
        for index in (-1, layout.size, np.int64(layout.size)):
            with pytest.raises(ValueError, match="^index outside register range$"):
                layout.decode(index)
            with pytest.raises(ValueError, match="^index outside register range$"):
                layout.levels(index)
            with pytest.raises(ValueError, match="^index outside register range$"):
                layout.decode_batch(np.array([0, index]))


def test_level_fields_of_an_index_array_are_each_index_levels():
    idx = np.arange(TRIMER_LAYOUT.size, dtype=np.int64)
    expected = zip(*map(TRIMER_LAYOUT.levels, range(TRIMER_LAYOUT.size)))
    assert [f.tolist() for f in TRIMER_LAYOUT.level_fields(idx)] == [list(c) for c in expected]


def test_all_points_shape_and_order():
    pts = GP_LAYOUT.all_points()
    assert pts.shape == (1024, 2)
    np.testing.assert_array_equal(pts[523], [0.0, -1.0])
    np.testing.assert_array_equal(pts[0], [-3.2, -3.2])
    np.testing.assert_array_equal(pts[-1], [3.0, 3.0])


@pytest.mark.parametrize(
    "layout",
    [
        GridLayout([VariableSpec("a", -1.0, 2.5, 3), VariableSpec("b", 0.1, 0.7, 1),
                    VariableSpec("c", -3.2, 3.0, 2)]),
        GridLayout([VariableSpec("a", 0.5, 2.0, 1), VariableSpec("b", -3.2, 3.0, 7),
                    VariableSpec("c", -1.0, 1.3, 6)]),
    ],
    ids=["3-1-2", "1-7-6"],
)
def test_all_points_is_bitwise_decode_batch_of_every_index(layout):
    # 64 points, and 16384: four of ``Objective.batch``'s blocks.
    expected = layout.decode_batch(np.arange(layout.size))
    assert layout.all_points().tobytes() == expected.tobytes()


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
    values = layout.objective_values(objective)
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

    values = layout.objective_values(Objective(objective.name, objective.arity, batch_fn=spy))
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
    values = layout.objective_values(spied)
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

    values = GRID_1_9.objective_values(Objective("shubert", 2, factor=spy))
    assert values.tobytes() == SHUBERT.batch(GRID_1_9.all_points()).tobytes()
    assert calls == [2] + [100, 100, 100, 100, 100, 12] * 2


@pytest.mark.parametrize("objective", [GOLDSTEIN_PRICE, SHUBERT, LJ_TRIMER], ids=lambda o: o.name)
def test_evaluate_holds_the_values_and_a_few_blocks(objective):
    layout = square_layout(["x", "y"], 0.0, 3.0, 9)
    assert layout.size > encoding.BLOCK_ROWS
    tracemalloc.start()
    try:
        values = layout.objective_values(objective)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes + 8 * encoding.BLOCK_ROWS * 8


def test_decode_batch_holds_one_level_field_at_a_time():
    # Beyond the result, the two coordinate columns; a level field taken
    # before the previous axis was decoded would add one more column.
    layout = square_layout(["x", "y"], 0.0, 3.0, 9)
    idx = np.arange(layout.size)
    tracemalloc.start()
    try:
        points = layout.decode_batch(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < points.nbytes + 2.5 * idx.nbytes


def test_index_range_checks():
    with pytest.raises(ValueError, match="outside"):
        GP_LAYOUT.decode(1024)
    with pytest.raises(ValueError, match="outside"):
        GP_LAYOUT.levels(-1)
    with pytest.raises(ValueError, match="outside"):
        GP_LAYOUT.variables[0].level_to_value(32)
    with pytest.raises(ValueError, match="register range"):
        GP_LAYOUT.decode_batch(np.array([0, 1024]))


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", np.float64(2.0)])
def test_non_integer_level_or_index_is_refused(bad):
    # Neither a float (even a whole one) nor a bool is truncated to a level or an index.
    variable = VariableSpec("x", 0.0, 1.0, 2)
    with pytest.raises(ValueError, match=re.escape(f"x: level must be an integer, got {bad!r}")):
        variable.level_to_value(bad)
    with pytest.raises(ValueError, match=re.escape(f"index must be an integer, got {bad!r}")):
        square_layout(["x", "y"], 0.0, 1.0, 2).decode(bad)
    with pytest.raises(ValueError, match=re.escape(f"index must be an integer, got {bad!r}")):
        square_layout(["x", "y"], 0.0, 1.0, 2).levels(bad)
    assert variable.level_to_value(np.int64(2)) == variable.level_to_value(2)
    assert GP_LAYOUT.decode(np.int64(3)) == GP_LAYOUT.decode(3)
    assert GP_LAYOUT.levels(np.int64(523)) == GP_LAYOUT.levels(523) == (16, 11)


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
    assert VariableSpec("v", 0.0, 1.0, np.int64(3)).levels == 8  # a numpy integer is an integer
    with pytest.raises(ValueError, match=r"^x: lo must be a real number, got True$"):
        VariableSpec("x", True, 2.0, 2)
    with pytest.raises(ValueError, match=r"^x: lo must be a real number, got '0'$"):
        VariableSpec("x", "0", 1.0, 2)


NAME_RULE = "variable name must be a non-empty string without ',', '\"' or a line break"


@pytest.mark.parametrize(
    "name, qubits, message",
    [
        ("x", True, "x: qubits must be an integer >= 1, got True"),
        ("x", 2.5, "x: qubits must be an integer >= 1, got 2.5"),
        ("x", 0, "x: qubits must be an integer >= 1, got 0"),
        ("x", "3", "x: qubits must be an integer >= 1, got '3'"),
        (5, 3, f"{NAME_RULE}, got 5"),
        ([1], 3, f"{NAME_RULE}, got [1]"),
        ("", 3, f"{NAME_RULE}, got ''"),
        ("a,b", 3, f"{NAME_RULE}, got 'a,b'"),
        ('a"b', 3, f"{NAME_RULE}, got 'a\"b'"),
        ("a\nb", 3, f"{NAME_RULE}, got 'a\\nb'"),
        ("a\rb", 3, f"{NAME_RULE}, got 'a\\rb'"),
    ],
    ids=[
        "qubits-true", "qubits-2.5", "qubits-0", "qubits-str",
        "name-int", "name-list", "name-empty", "name-comma", "name-quote", "name-lf", "name-cr",
    ],
)
def test_variable_spec_refuses_a_bad_name_or_qubit_count(name, qubits, message):
    with pytest.raises(ValueError) as caught:
        VariableSpec(name, 0.0, 1.0, qubits)
    assert str(caught.value) == message


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
    # A level's value lies in [lo, hi], and searching the sorted axis finds its level again.
    v = VariableSpec("v", lo, lo + width, qubits)
    k = data.draw(st.integers(min_value=0, max_value=v.levels - 1))
    x = v.level_to_value(k)
    assert v.lo <= x <= v.hi
    assert np.searchsorted(v.axis_points(), x) == k
    assert GridLayout([v]).decode(k) == (x,)
