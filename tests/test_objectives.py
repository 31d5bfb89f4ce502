"""Objective families: polynomial, cosine product, and LJ cluster energies."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grovermin import objectives
from grovermin.encoding import VariableSpec
from grovermin.objectives import (
    CONTACT_EPS,
    ENERGY_CAP,
    GOLDSTEIN_PRICE,
    LJ_TRIMER,
    SHUBERT,
    ClusterGeometry,
    Objective,
    build_fixed_core,
    check_box,
    check_finite,
    free_atom_objective,
    get_objective,
    gp_eval,
    lj_pair,
    shubert_axis,
)


@pytest.mark.parametrize(
    "point, value",
    [
        ((0.0, -1.0), 3.0),
        ((-0.6, -0.4), 30.0),
        ((1.8, 0.2), 84.0),
        ((1.2, 0.8), 840.0),
    ],
)
def test_gp_known_values(point, value):
    assert gp_eval(*point) == pytest.approx(value, rel=1e-9)


def test_gp_minimum_is_exact():
    assert gp_eval(0.0, -1.0) == 3.0


def test_shubert_origin_frozen():
    assert SHUBERT(0.0, 0.0) == pytest.approx(19.875836249802127, abs=1e-12)
    assert SHUBERT(0.0, 0.0) == shubert_axis(0.0) ** 2 == SHUBERT.batch([[0.0, 0.0]])[0]


def test_shubert_global_minimum_value():
    # one of the 18 equivalent minimizers
    assert SHUBERT(-1.42512843, -0.8003211) == pytest.approx(
        -186.73090883102387, abs=1e-6
    )


def test_shubert_is_symmetric():
    for x, y in [(0.3, -1.7), (2.0, 5.5), (-9.1, 4.2)]:
        assert SHUBERT(x, y) == SHUBERT(y, x)


def test_lj_pair_exact_values():
    assert lj_pair(1.0) == -1.0
    assert lj_pair(2.0) == -127.0 / 4096.0
    assert lj_pair(2.0) == -0.031005859375


def test_lj_pair_minimum_at_one():
    rs = np.linspace(0.8, 1.3, 2001)
    vals = np.array([lj_pair(r) for r in rs])
    assert vals.min() >= -1.0
    assert abs(rs[vals.argmin()] - 1.0) < 1e-3


def test_lj_pair_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        lj_pair(0.0)
    with pytest.raises(ValueError, match="positive"):
        lj_pair(-1.0)
    with pytest.raises(ValueError, match="positive, got nan"):
        lj_pair(math.nan)


def trimer_reference(b1, b2, a1):
    """Three-atom energy from two bond lengths and the angle between them, with
    the third pair distance from the law of cosines and ENERGY_CAP when that
    pair coincides: the scalar reference ``LJ_TRIMER`` (both bonds ``b1``) is
    pinned against."""
    r12 = math.sqrt(max(b1 * b1 + b2 * b2 - 2.0 * b1 * b2 * math.cos(a1), 0.0))
    if r12 <= CONTACT_EPS:
        return ENERGY_CAP
    return lj_pair(b1) + lj_pair(b2) + lj_pair(r12)


def test_trimer_equilateral_unit():
    assert trimer_reference(1.0, 1.0, math.pi / 3) == pytest.approx(-3.0, abs=1e-12)
    assert LJ_TRIMER(1.0, math.pi / 3) == pytest.approx(-3.0, abs=1e-12)


@pytest.mark.parametrize("b", [0.7, 0.9, 1.0, 1.2, 1.6])
def test_trimer_equilateral_identity(b):
    # angle pi/3 with equal bonds closes an equilateral triangle
    assert trimer_reference(b, b, math.pi / 3) == pytest.approx(3 * lj_pair(b), abs=1e-10)
    assert LJ_TRIMER(b, math.pi / 3) == pytest.approx(3 * lj_pair(b), abs=1e-10)


def test_trimer_grid_minimum_frozen():
    value = LJ_TRIMER(1.0323064516129032, 1.0472642178632643)
    assert value == pytest.approx(-2.909406055942051, abs=1e-12)


def test_trimer_collinear_angle_allowed():
    # a1 = pi is valid: third distance is b1 + b2
    expected = 2 * lj_pair(1.0) + lj_pair(2.0)
    assert trimer_reference(1.0, 1.0, math.pi) == pytest.approx(expected, abs=1e-12)
    assert LJ_TRIMER(1.0, math.pi) == pytest.approx(expected, abs=1e-12)


def test_trimer_coincidence_capped():
    # tiny angle between equal bonds puts atoms 1 and 2 on top of each other
    assert LJ_TRIMER(1.0, 1e-9) == trimer_reference(1.0, 1.0, 1e-9) == ENERGY_CAP
    # just above the contact threshold the raw (huge but finite) value is kept
    near = LJ_TRIMER(1.0, 1e-7)
    assert math.isfinite(near) and near != ENERGY_CAP
    assert near == pytest.approx(trimer_reference(1.0, 1.0, 1e-7), rel=1e-7)


def test_cluster_energy_tetrahedron():
    core = build_fixed_core(3, 1.0)
    assert core.fixed_energy == pytest.approx(-3.0, abs=1e-12)
    apex = (0.0, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0))
    assert free_atom_objective(core)(*apex) == pytest.approx(-6.0, abs=1e-10)


def test_build_fixed_core_distances():
    core = build_fixed_core(4, 1.0)
    atoms = core.fixed_atoms
    assert atoms.shape == (4, 3)
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(atoms[i] - atoms[j]) == pytest.approx(1.0, abs=1e-12)
    assert core.fixed_energy == pytest.approx(-6.0, abs=1e-10)


def test_build_fixed_core_scales_with_bond():
    core = build_fixed_core(3, 1.1)
    d = np.linalg.norm(core.fixed_atoms[0] - core.fixed_atoms[1])
    assert d == pytest.approx(1.1, abs=1e-12)
    assert core.fixed_energy == pytest.approx(3 * lj_pair(1.1), abs=1e-10)


def test_build_fixed_core_validation():
    with pytest.raises(ValueError, match="bond"):
        build_fixed_core(3, 0.0)
    with pytest.raises(ValueError, match="num_fixed"):
        build_fixed_core(5, 1.0)


@pytest.mark.parametrize(
    "bond, message",
    [
        (math.inf, "bond must be finite, got inf"),
        (-math.inf, "bond must be finite, got -inf"),
        (math.nan, "bond must be positive, got nan"),
    ],
)
def test_build_fixed_core_refuses_a_bond_that_is_not_a_finite_length(bond, message):
    with pytest.raises(ValueError, match=message):
        build_fixed_core(3, bond)


def test_cluster_energy_rigid_motion_invariance():
    rng = np.random.default_rng(11)
    core = build_fixed_core(4, 1.0)
    free = np.array([0.2, 0.5, 0.9])
    reference = free_atom_objective(core)(*free)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        shift = rng.normal(size=3)
        moved = ClusterGeometry(core.fixed_atoms @ q.T + shift)
        assert free_atom_objective(moved)(*(q @ free + shift)) == pytest.approx(
            reference, rel=1e-9
        )


def test_cluster_energy_receding_limit():
    core = build_fixed_core(3, 1.0)
    far = free_atom_objective(core)(0.0, 0.0, 1e6)
    assert far == pytest.approx(core.fixed_energy, abs=1e-12)


def test_cluster_energy_coincidence_capped():
    core = build_fixed_core(3, 1.0)
    energy = free_atom_objective(core)
    assert energy(*core.fixed_atoms[0]) == ENERGY_CAP
    nearly = core.fixed_atoms[0] + np.array([CONTACT_EPS / 2, 0.0, 0.0])
    assert energy(*nearly) == ENERGY_CAP


def test_cluster_energy_validation():
    energy = free_atom_objective(build_fixed_core(3, 1.0))
    with pytest.raises(ValueError, match="lj-grow-xyz takes 3 coordinates, got 2"):
        energy(1.0, 2.0)
    with pytest.raises(ValueError, match="objective 'lj-grow-xyz' gave 1 non-finite values"):
        energy(np.nan, 0.0, 0.0)


def test_cluster_geometry_rejects_coincident_atoms():
    with pytest.raises(ValueError, match="coincide"):
        ClusterGeometry(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="shape"):
        ClusterGeometry(np.zeros((2, 2)))
    for hole in (math.nan, math.inf):
        atoms = [[hole, 0.0, 0.0], [1.0, 0.0, 0.0]]
        with pytest.raises(ValueError, match=r"^fixed_atoms must be finite, got \[\["):
            ClusterGeometry(atoms)
    # Finite atoms 1e200 apart: the distance overflows, and no numpy warning leaks.
    with pytest.raises(ValueError, match="^fixed atoms 0 and 1: distance overflows$"):
        build_fixed_core(3, 1e200)


@pytest.mark.parametrize(
    "pair, message",
    [
        (("-10", "10"), r"box must be a list of \[lo, hi\] pairs of real numbers, got "),
        ((True, 10), r"box must be a list of \[lo, hi\] pairs of real numbers, got "),
        ((None, 1.0), r"box must be a list of \[lo, hi\] pairs of real numbers, got "),
        ((-1e308, 1e308), r"^box width hi - lo overflows, got \[-1e\+308, 1e\+308\]$"),
        ((-math.inf, 0.0), r"^box bounds must be finite, got \[-inf, 0.0\]$"),
        ((1.0, 0.0), r"^empty box axis \[1.0, 0.0\]$"),
    ],
    ids=["string", "bool", "none", "overflowing-width", "infinite", "empty"],
)
def test_check_box_refuses_what_a_grid_variable_refuses(pair, message):
    with pytest.raises(ValueError, match=message):
        check_box([(0.0, 1.0), pair], 2)
    with pytest.raises(ValueError):
        VariableSpec("x", *pair, 2)


def test_check_box_refuses_an_integer_past_the_float_range():
    with pytest.raises(ValueError, match="^box bounds must be finite, got an integer too large$"):
        check_box([(0.0, 1.0), (-(10**400), 0)], 2)


def test_check_box_takes_real_numbers_of_any_kind():
    box = check_box([(np.int64(-1), np.float32(0.5)), (0, 1e308)], 2)
    assert box == [(-1.0, 0.5), (0.0, 1e308)]
    assert all(type(b) is float for pair in box for b in pair)


def test_free_atom_objective_arities():
    core = build_fixed_core(3, 1.0)
    full = free_atom_objective(core)
    assert (full.name, full.arity) == ("lj-grow-xyz", 3)
    pinned = free_atom_objective(core, pin_x=0.0)
    assert (pinned.name, pinned.arity) == ("lj-grow-yz", 2)
    apex = (0.0, math.sqrt(3.0) / 6.0, math.sqrt(2.0 / 3.0))
    assert full(*apex) == pytest.approx(-6.0, abs=1e-10)
    assert pinned(apex[1], apex[2]) == pytest.approx(-6.0, abs=1e-10)


def test_free_atom_batch_matches_scalar():
    core = build_fixed_core(4, 1.0)
    obj = free_atom_objective(core)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, size=(64, 3))
    batch = obj.batch(pts)
    scalar = np.array([obj(*row) for row in pts])
    np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-9)


def norm_free_atom(geometry, x, y, z):
    """The free-atom energy with distances from ``np.linalg.norm``: the reference."""
    positions = np.empty(np.broadcast(x, y, z).shape + (3,))
    positions[..., 0], positions[..., 1], positions[..., 2] = x, y, z
    r = np.linalg.norm(positions[..., None, :] - geometry.fixed_atoms, axis=-1)
    bad = np.any(r <= CONTACT_EPS, axis=-1)
    r = np.maximum(r, CONTACT_EPS)
    inv6 = r**-6
    total = geometry.fixed_energy + np.sum(inv6 * inv6 - 2.0 * inv6, axis=-1)
    return np.where(bad, ENERGY_CAP, total)


@pytest.mark.parametrize("num_fixed", [1, 3, 4, 5, 7, 8, 9])
def test_free_atom_energy_is_bitwise_the_norm_formula(num_fixed):
    rng = np.random.default_rng(num_fixed)
    atoms = rng.uniform(-1.0, 1.0, size=(num_fixed, 3))
    atoms[:, 0] = np.linspace(-1.0, 1.0, num_fixed)  # no two atoms coincide
    geometry = ClusterGeometry(atoms)
    pts = rng.uniform(-1.5, 1.5, size=(700, 3)) * rng.uniform(0.0, 1.0, size=(700, 1))
    pts[:num_fixed] = atoms  # coincident: capped
    pts[num_fixed : 2 * num_fixed] = atoms + 0.5 * CONTACT_EPS  # within contact: capped
    pts[2 * num_fixed] = (0.0, 0.0, 0.0)
    full, pinned = free_atom_objective(geometry), free_atom_objective(geometry, pin_x=0.3)
    x, y, z = pts.T
    expected = norm_free_atom(geometry, x, y, z)
    assert np.count_nonzero(expected == ENERGY_CAP) >= 2 * num_fixed
    assert full.batch(pts).tobytes() == expected.tobytes()
    assert pinned.batch(pts[:, 1:]).tobytes() == norm_free_atom(geometry, 0.3, y, z).tobytes()
    assert [full(*p) for p in pts[:50]] == expected[:50].tolist()
    axes = [x[:5], y[:7], z[:3]]
    mesh = norm_free_atom(geometry, *np.ix_(*axes)).reshape(-1)
    assert full.mesh(axes).tobytes() == mesh.tobytes()
    assert full.mesh([atoms[:1, 0], atoms[:1, 1], atoms[:1, 2]]).tolist() == [ENERGY_CAP]


@pytest.mark.parametrize("obj", [GOLDSTEIN_PRICE, SHUBERT])
def test_grid_objective_batch_matches_scalar(obj):
    rng = np.random.default_rng(17)
    pts = rng.uniform(-2.0, 2.0, size=(128, 2))
    np.testing.assert_allclose(
        obj.batch(pts), [obj(*row) for row in pts], rtol=1e-12
    )


def test_trimer_batch_matches_scalar():
    rng = np.random.default_rng(23)
    pts = np.column_stack(
        [rng.uniform(0.5, 2.0, size=128), rng.uniform(0.2, math.pi, size=128)]
    )
    np.testing.assert_allclose(
        LJ_TRIMER.batch(pts), [LJ_TRIMER(*row) for row in pts], rtol=1e-10
    )


def test_objective_call_checks_arity():
    with pytest.raises(ValueError, match="takes 2 coordinates"):
        GOLDSTEIN_PRICE(1.0)


def test_objective_batch_checks_shape():
    with pytest.raises(ValueError, match="expected shape"):
        GOLDSTEIN_PRICE.batch(np.zeros((4, 3)))


def test_objective_of_a_vectorized_point_function():
    seen = []

    def add(a, b):
        seen.append((type(a), type(b)))
        return a + b

    obj = Objective("sum", 2, batch_fn=np.vectorize(add, otypes=[float]))
    np.testing.assert_array_equal(obj.batch([[1.0, 2.0], [3.0, 4.0]]), [3.0, 7.0])
    # The mesh broadcasts the scalar function too: one call per grid point.
    seen.clear()
    values = obj.mesh([np.array([0.0, 10.0]), np.array([1.0, 2.0, 3.0])])
    np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 11.0, 12.0, 13.0])
    assert seen == [(float, float)] * 6
    assert obj(1.0, 2.0) == 3.0


def test_objective_needs_batch_fn_or_factor():
    with pytest.raises(ValueError, match="'empty' needs exactly one of batch_fn and factor"):
        Objective("empty", 2)
    # Both fields are keyword-only, and there is no scalar ``fn``.
    with pytest.raises(TypeError):
        Objective("f", 1, lambda t: t)
    with pytest.raises(TypeError):
        Objective("f", 1, fn=lambda t: t)
    # batch_fn takes one coordinate array per variable, and they broadcast.
    shapes = []

    def product(x, y):
        shapes.append((x.shape, y.shape))
        return x * y

    obj = Objective("product", 2, batch_fn=product)
    np.testing.assert_array_equal(obj.batch([[2.0, 3.0], [4.0, 5.0]]), [6.0, 20.0])
    values = obj.mesh([np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])])
    np.testing.assert_array_equal(values, [3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    assert shapes == [((2,), (2,)), ((2, 1), (1, 3))]
    unbroadcast = Objective("first", 2, batch_fn=lambda x, y: x)
    with pytest.raises(ValueError, match=r"'first' gave shape \(2, 1\), expected \(2, 3\)"):
        unbroadcast.mesh([np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])])


@pytest.mark.parametrize(
    "obj",
    [
        GOLDSTEIN_PRICE,
        SHUBERT,
        LJ_TRIMER,
        free_atom_objective(build_fixed_core(4, 1.0)),
        free_atom_objective(build_fixed_core(3, 1.0), pin_x=0.0),
    ],
    ids=lambda obj: obj.name,
)
def test_scalar_call_equals_batch_row_exactly(obj):
    rng = np.random.default_rng(29)
    pts = rng.uniform(0.05, 2.0, size=(64, obj.arity))
    for row, value in zip(pts, obj.batch(pts)):
        assert obj(*row) == value


def test_shubert_eval_scalar_equals_array_exactly():
    rng = np.random.default_rng(3)
    x1, x2 = rng.uniform(-10.0, 10.0, size=(2, 50))
    batch = SHUBERT.batch(np.column_stack([x1, x2])).tolist()
    assert [SHUBERT(a, b) for a, b in zip(x1, x2)] == batch
    assert [shubert_axis(a) * shubert_axis(b) for a, b in zip(x1, x2)] == batch
    assert (shubert_axis(x1) * shubert_axis(x2)).tolist() == batch


def test_shubert_term_sum_equals_the_reduction_formula_bitwise():
    i = np.arange(1, 6)

    def reduced(x1, x2):
        def axis_sum(x):
            return np.sum(i * np.cos((i + 1) * np.asarray(x)[..., None] + i), axis=-1)

        return axis_sum(x1) * axis_sum(x2)

    rng = np.random.default_rng(17)
    x1, x2 = rng.uniform(-10.0, 10.0, size=(2, 20000))
    expected = reduced(x1, x2)
    np.testing.assert_array_equal(shubert_axis(x1) * shubert_axis(x2), expected)
    np.testing.assert_array_equal(SHUBERT.batch(np.column_stack([x1, x2])), expected)
    assert [SHUBERT(a, b) for a, b in zip(x1[:500], x2[:500])] == list(expected[:500])
    axes = [np.linspace(-10.0, 10.0, 16), np.linspace(-10.0, 10.0, 4096)]
    rows, cols = np.ix_(*axes)
    np.testing.assert_array_equal(shubert_axis(rows) * shubert_axis(cols), reduced(rows, cols))
    np.testing.assert_array_equal(SHUBERT.mesh(axes), reduced(rows, cols).reshape(-1))
    factors = [shubert_axis(a) for a in axes]
    assert [SHUBERT.map_axis(a).tobytes() for a in axes] == [f.tobytes() for f in factors]
    np.testing.assert_array_equal(SHUBERT.mapped_mesh(factors), reduced(rows, cols).reshape(-1))


def gp_expression(x1, x2):
    # The reference for gp_eval: Goldstein-Price as one plain numpy expression.
    a = 1 + (x1 + x2 + 1) ** 2 * (
        19 - 14 * x1 + 3 * x1**2 - 14 * x2 + 6 * x1 * x2 + 3 * x2**2
    )
    b = 30 + (2 * x1 - 3 * x2) ** 2 * (
        18 - 32 * x1 + 12 * x1**2 + 48 * x2 - 36 * x1 * x2 + 27 * x2**2
    )
    return a * b


def lj_expression(r):
    inv6 = np.asarray(r, dtype=float) ** -6
    return inv6 * inv6 - 2.0 * inv6


def trimer_expression(b, a):
    # The reference for LJ_TRIMER's kernel, in plain numpy expressions.
    r12_sq = 2.0 * b * b * (1.0 - np.cos(a))
    r12 = np.sqrt(np.maximum(r12_sq, 0.0))
    # A zero bond gives inf/nan in lj_expression(b); the cap replaces exactly
    # those cells.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bonds = 2.0 * lj_expression(b)
    return np.where(
        r12 > CONTACT_EPS, bonds + lj_expression(np.maximum(r12, CONTACT_EPS)), ENERGY_CAP
    )


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype == np.float64
    assert actual.tobytes() == expected.tobytes()


def read_only(*arrays):
    """``arrays``, made read-only so that a kernel writing into them raises."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


#: Open-mesh shapes of the two coordinate arrays: a 16 x 4096 grid slab, one
#: row and one column.
MESH_SHAPES = [((16, 1), (1, 4096)), ((1, 1), (1, 300)), ((300, 1), (1, 1))]


@pytest.mark.parametrize("shapes", MESH_SHAPES, ids=["16x4096", "1xN", "Nx1"])
def test_gp_in_place_is_bitwise_the_expression_on_a_mesh(shapes):
    rng = np.random.default_rng(41)
    x1, x2 = read_only(*(rng.uniform(-3.2, 3.0, size=shape) for shape in shapes))
    assert_same_bits(gp_eval(x1, x2), gp_expression(x1, x2))


@pytest.mark.parametrize("shapes", MESH_SHAPES, ids=["16x4096", "1xN", "Nx1"])
def test_trimer_in_place_is_bitwise_the_expression_on_a_mesh(shapes):
    rng = np.random.default_rng(43)
    b = rng.uniform(1e-4, 2.0, size=shapes[0])
    a = rng.uniform(1e-4, math.pi, size=shapes[1])
    b, a = read_only(b, a)
    assert_same_bits(LJ_TRIMER.batch_fn(b, a), trimer_expression(b, a))


def test_in_place_kernels_are_bitwise_the_expressions_on_columns():
    rng = np.random.default_rng(47)
    gp_pts = rng.uniform(-3.2, 3.0, size=(20000, 2))
    trimer_pts = np.column_stack(
        [rng.uniform(1e-4, 2.0, size=20000), rng.uniform(1e-4, math.pi, size=20000)]
    )
    for pts in read_only(gp_pts, trimer_pts):
        assert not pts.T[0].flags.contiguous  # the column views batch passes
    for kernel, expression, pts in [
        (gp_eval, gp_expression, gp_pts),
        (LJ_TRIMER.batch_fn, trimer_expression, trimer_pts),
    ]:
        expected = expression(*pts.T)
        assert_same_bits(kernel(*pts.T), expected)
        assert_same_bits(kernel(*np.ascontiguousarray(pts.T)), expected)
    assert_same_bits(GOLDSTEIN_PRICE.batch(gp_pts), gp_expression(*gp_pts.T))
    assert_same_bits(LJ_TRIMER.batch(trimer_pts), trimer_expression(*trimer_pts.T))


def test_gp_in_place_is_bitwise_the_expression_on_scalars():
    assert gp_eval(0.0, -1.0) == 3.0
    assert np.ndim(gp_eval(0.0, -1.0)) == 0 and not isinstance(gp_eval(0.0, -1.0), np.ndarray)
    rng = np.random.default_rng(53)
    for x1, x2 in rng.uniform(-3.2, 3.0, size=(500, 2)).tolist():
        assert gp_eval(x1, x2).hex() == gp_expression(x1, x2).hex()
        assert GOLDSTEIN_PRICE(x1, x2).hex() == gp_expression(x1, x2).hex()


def test_trimer_in_place_caps_exactly_the_expression_cells():
    # A zero bond, the collinear angle, a coincident third pair (tiny angle)
    # and NaN in either coordinate, which gives ENERGY_CAP.  The kernel runs
    # through ``batch`` and ``mesh``, which silence the zero bond's overflow.
    b = np.array([0.0, 1.0, 1.0, 1.0, np.nan, 1.5, 1e-4])
    a = np.array([1.0, math.pi, 1e-12, np.nan, 1.0, math.pi, 1e-4])
    b, a, pts = read_only(b, a, np.column_stack([b, a]))
    energy = LJ_TRIMER.batch(pts)
    assert_same_bits(energy, trimer_expression(b, a))
    assert energy.tolist()[0] == ENERGY_CAP and energy.tolist()[2:5] == [ENERGY_CAP] * 3
    assert max(energy[1], energy[5]) < ENERGY_CAP  # collinear cells are not capped
    rows, cols = np.ix_(b, a)
    assert_same_bits(LJ_TRIMER.mesh([b, a]), trimer_expression(rows, cols).reshape(-1))
    # Without contact the kernel skips the mask, the clamp and the cap.
    (apart,) = read_only(pts[[1, 5]])
    assert_same_bits(LJ_TRIMER.batch(apart), energy[[1, 5]])
    assert LJ_TRIMER.batch(np.empty((0, 2))).shape == (0,)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: One float64 column of a ``batch`` block, the unit of the peaks below.
COLUMN = 8 * objectives.BATCH_ROWS


@pytest.mark.parametrize(
    "objective, columns", [(GOLDSTEIN_PRICE, 7), (LJ_TRIMER, 6)], ids=["gp", "lj-trimer"]
)
def test_batch_of_columns_peaks_no_higher_than_the_expression(objective, columns):
    # A batch holds its values and one block's temporaries.  For 2**20
    # points that is 8 MiB plus 6.1 block columns for GP and 5.1 for the
    # trimer; evaluated whole, the batch peaked at 32 MiB and 57 MiB.
    pts = np.random.default_rng(59).uniform(0.1, 3.0, size=(1 << 20, 2))
    assert traced_peak(objective.batch, pts) <= 8 * len(pts) + columns * COLUMN


def test_shubert_factor_holds_a_block_of_terms_at_a_time():
    # The values plus one block's factors, five terms per element and
    # product: 8 MiB plus 15.1 block columns for 2**20 points.
    x = np.random.default_rng(61).uniform(-10.0, 10.0, size=(1 << 20, 2))
    assert traced_peak(SHUBERT.batch, x) <= 8 * len(x) + 16 * COLUMN


def test_free_atom_batch_holds_three_atom_rows_at_most():
    # The values plus one block's distances, squares, contact mask and pair
    # energies: 0.8 MB plus 10.6 block columns for 10**5 points and 4 atoms.
    pts = np.random.default_rng(67).uniform(-1.5, 1.5, size=(10**5, 3))
    objective = free_atom_objective(build_fixed_core(4, 1.0))
    assert traced_peak(objective.batch, pts) <= 8 * len(pts) + 11 * COLUMN


#: Points of each kind of objective, with some contact for the LJ energies.
_BLOCKED_CASES = {
    "gp": (GOLDSTEIN_PRICE, np.random.default_rng(71).uniform(-3.2, 3.0, size=(250, 2))),
    "shubert": (SHUBERT, np.random.default_rng(73).uniform(-10.0, 10.0, size=(250, 2))),
    "lj-trimer": (
        LJ_TRIMER,
        np.vstack([[[0.0, 1.0], [1.0, 1e-12]], np.random.default_rng(79).uniform(0.5, 2.0, (248, 2))]),
    ),
    "lj-grow-xyz": (
        free_atom_objective(build_fixed_core(4, 1.0)),
        np.vstack([[[-0.5, 0.0, 0.0]], np.random.default_rng(83).uniform(-1.5, 1.5, (249, 3))]),
    ),
}


@pytest.mark.parametrize("name", list(_BLOCKED_CASES))
def test_blocked_batch_is_bitwise_the_whole_batch(monkeypatch, name):
    objective, pts = _BLOCKED_CASES[name]
    whole = objective.batch(pts)
    # 64-row blocks, the last one short: contact falls in the first block only.
    monkeypatch.setattr(objectives, "BATCH_ROWS", 64)
    blocked = objective.batch(pts)
    assert blocked.tobytes() == whole.tobytes()
    assert objective.batch(pts[:0]).shape == (0,)
    if name.startswith("lj"):
        assert whole[0] == ENERGY_CAP and (whole[2:] < ENERGY_CAP).all()


def test_blocked_batch_counts_the_non_finite_values_of_every_block(monkeypatch):
    holes = Objective("holes", 1, batch_fn=lambda t: np.where(t > 0, np.nan, t))
    monkeypatch.setattr(objectives, "BATCH_ROWS", 4)
    # Ten rows in three blocks; the NaNs sit in the second and the last.
    t = -np.ones((10, 1))
    t[[5, 8, 9]] = 1.0
    with pytest.raises(ValueError, match="^objective 'holes' gave 3 non-finite values$"):
        holes.batch(t)
    # A block whose values have the wrong shape is refused, not broadcast.
    scalar = Objective("scalar", 1, batch_fn=lambda t: 1.0)
    with pytest.raises(ValueError, match=r"gave shape \(\), expected \(4,\)"):
        scalar.batch(t)


def test_product_objective_is_the_product_of_its_factors():
    objective = Objective("cos3", 3, factor=np.cos)
    x, y, z = np.random.default_rng(5).uniform(-3.0, 3.0, size=(3, 50))
    expected = np.cos(x) * np.cos(y) * np.cos(z)
    np.testing.assert_array_equal(objective.batch(np.column_stack([x, y, z])), expected)
    assert objective(x[0], y[0], z[0]) == expected[0]
    axes = [x[:4], y[:5], z[:6]]
    mesh = objective.mesh(axes)
    assert mesh.tobytes() == objective.mapped_mesh([np.cos(a) for a in axes]).tobytes()
    assert mesh.tobytes() == objective.batch(list(itertools.product(*axes))).tobytes()
    with pytest.raises(ValueError, match="objective 'cos3' gave 2 non-finite values"):
        objective.mapped_mesh([np.array([np.inf]), np.ones(2), np.ones(1)])
    with pytest.raises(ValueError, match="'both' needs exactly one of batch_fn and factor"):
        Objective("both", 2, batch_fn=gp_eval, factor=shubert_axis)


def test_batch_rejects_non_finite_values():
    holes = Objective("holes", 1, batch_fn=lambda t: np.where(t > 0, np.nan, t))
    with pytest.raises(ValueError, match="objective 'holes' gave 2 non-finite values"):
        holes.batch([[-1.0], [1.0], [2.0]])
    scalar = Objective(
        "pole", 1, batch_fn=np.vectorize(lambda t: 1.0 / t if t else math.inf, otypes=[float])
    )
    with pytest.raises(ValueError, match="objective 'pole' gave 1 non-finite values"):
        scalar.batch([[0.0], [1.0]])


@pytest.mark.parametrize(
    "holes, count",
    [
        ({0: np.nan}, 1),
        ({-1: np.inf}, 1),
        ({5: -np.inf}, 1),
        ({3: np.nan, 4: np.inf, 7: -np.inf}, 3),
        ({i: np.nan for i in range(10)}, 10),
    ],
    ids=["nan", "inf", "-inf", "mixed", "all-nan"],
)
def test_check_finite_counts_every_non_finite_value(holes, count):
    values = np.linspace(-1.0, 1.0, 10)
    for i, hole in holes.items():
        values[i] = hole
    with pytest.raises(ValueError, match=rf"^objective 'f' gave {count} non-finite values$"):
        check_finite("f", values)


def test_check_finite_passes_finite_values_without_a_mask():
    empty = np.empty(0)
    assert check_finite("f", empty) is empty
    values = np.random.default_rng(61).uniform(-1.0, 1.0, size=1 << 20)
    values[[0, -1]] = np.finfo(float).max, -np.finfo(float).max
    # The sum of these overflows, so the check falls back to min and max.
    overflowing = np.full(1 << 20, np.finfo(float).max)
    for finite in (values, overflowing):
        tracemalloc.start()
        try:
            assert check_finite("f", finite) is finite
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < finite.size // 64  # an isfinite mask would take one byte per value


@pytest.mark.parametrize(
    "values, count",
    [([1e308, 1e308], 0), ([np.inf, -np.inf], 2), ([np.nan, 1e308, 1e308], 1), ([-np.inf], 1)],
    ids=["sum-overflows", "sum-is-nan", "nan-beside-overflow", "one-inf"],
)
def test_check_finite_reads_a_non_finite_sum_by_min_and_max(values, count):
    # Under the suite's ``filterwarnings = error`` any RuntimeWarning of the
    # overflowing or NaN sum would fail here.
    values = np.array(values)
    if not count:
        assert check_finite("f", values) is values
    else:
        with pytest.raises(ValueError, match=rf"^objective 'f' gave {count} non-finite values$"):
            check_finite("f", values)


@pytest.mark.parametrize(
    "objective, coords",
    [
        (GOLDSTEIN_PRICE, (1e200, 0.0)),
        (Objective("holes", 1, batch_fn=lambda t: np.where(t > 0, np.nan, t)), (1.0,)),
        (Objective("cos-inf", 2, factor=lambda x: np.where(x > 0, np.inf, np.cos(x))), (1.0, 0.0)),
    ],
    ids=["gp-overflow", "nan", "product-inf"],
)
def test_scalar_call_rejects_non_finite_values(objective, coords):
    # A scalar call is a one-row batch, so it fails with the batch's message;
    # GP at 1e200 overflows to inf, which is the value under test, and
    # without a warning.
    message = f"objective '{objective.name}' gave 1 non-finite values"
    with pytest.raises(ValueError, match=message):
        objective(*coords)


def test_registry_lookup():
    assert get_objective("gp") is GOLDSTEIN_PRICE
    assert get_objective("shubert") is SHUBERT
    assert get_objective("lj-trimer") is LJ_TRIMER
    with pytest.raises(ValueError, match="unknown objective"):
        get_objective("rosenbrock")


@given(
    b1=st.floats(min_value=0.3, max_value=3.0),
    b2=st.floats(min_value=0.3, max_value=3.0),
    a=st.floats(min_value=0.05, max_value=math.pi),
)
@settings(max_examples=80, deadline=None)
def test_trimer_matches_explicit_geometry(b1, b2, a):
    # place the three atoms explicitly and sum the pairs; LJ_TRIMER ties b2 to b1
    def explicit(b2):
        p1 = np.array([b1, 0.0, 0.0])
        p2 = np.array([b2 * math.cos(a), b2 * math.sin(a), 0.0])
        r12 = np.linalg.norm(p1 - p2)
        assert r12 > CONTACT_EPS
        return lj_pair(b1) + lj_pair(b2) + lj_pair(r12)

    expected = explicit(b2)
    assert trimer_reference(b1, b2, a) == pytest.approx(expected, rel=1e-7, abs=1e-9)
    assert LJ_TRIMER(b1, a) == pytest.approx(explicit(b1), rel=1e-7, abs=1e-9)
