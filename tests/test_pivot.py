"""Hybrid pivot search: selection accounting, resampling, cluster growth."""

import hashlib
import math

import numpy as np
import pytest

import grovermin.grover as grover
import grovermin.pivot as pivot
import grovermin.statevector as statevector
from grovermin.grover import optimal_iterations, success_probability
from grovermin.objectives import ClusterGeometry, GOLDSTEIN_PRICE, SHUBERT, Objective, lj_pair
from grovermin.statevector import MarkedSet, RegisterTooLarge, iterate, uniform_superposition
from grovermin.pivot import (
    TRIMER_BOX,
    GrowthConfig,
    PivotConfig,
    PivotState,
    ProbeSet,
    boltzmann_weights,
    generate_probes,
    lj_growth,
    pivot_grover_search,
    resample,
    select_pivots,
)

GP_BOX = [(-3.2, 3.0), (-3.2, 3.0)]

SPHERE = Objective("sphere", 2, batch_fn=lambda x, y: x**2 + y**2)


def test_pivot_config_defaults():
    config = PivotConfig()
    assert config.fraction == 0.15
    assert config.kT == 50.0
    assert config.sigma_scale == 8.0
    assert config.sigma_decay == 0.9
    assert config.sigma_floor == 1e-4
    assert config.stall_generations == 20
    assert config.stall_tol == 0.0
    assert config.max_generations == 200
    assert config.elitism


def test_pivot_config_validation():
    with pytest.raises(ValueError, match="fraction"):
        PivotConfig(fraction=0.0)
    with pytest.raises(ValueError, match="fraction"):
        PivotConfig(fraction=1.0)
    with pytest.raises(ValueError, match="kT"):
        PivotConfig(kT=0.0)
    with pytest.raises(ValueError, match="sigma"):
        PivotConfig(sigma_decay=1.0)
    with pytest.raises(ValueError, match="must be >= 1"):
        PivotConfig(stall_generations=0)


def test_generate_probes_in_box():
    rng = np.random.default_rng(0)
    probes = generate_probes(GP_BOX, 256, rng, GOLDSTEIN_PRICE)
    assert probes.points.shape == (256, 2)
    assert len(probes) == 256
    for axis, (lo, hi) in enumerate(GP_BOX):
        assert probes.points[:, axis].min() >= lo
        assert probes.points[:, axis].max() <= hi
    np.testing.assert_array_equal(
        probes.values, GOLDSTEIN_PRICE.batch(probes.points)
    )


def test_generate_probes_covers_box():
    rng = np.random.default_rng(1)
    probes = generate_probes([(0.0, 1.0), (0.0, 1.0)], 1024, rng, SPHERE)
    # uniform draws fill the box: each coordinate mean near the center
    assert probes.points.mean(axis=0) == pytest.approx([0.5, 0.5], abs=0.05)


def test_generate_probes_degenerate_axis():
    probes = generate_probes(
        [(0.5, 0.5), (0.0, 1.0)], 16, np.random.default_rng(2), SPHERE
    )
    np.testing.assert_array_equal(probes.points[:, 0], np.full(16, 0.5))


def test_generate_probes_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="at least 2 probes"):
        generate_probes(GP_BOX, 1, rng, GOLDSTEIN_PRICE)
    with pytest.raises(ValueError, match="axes"):
        generate_probes([(0.0, 1.0)], 8, rng, GOLDSTEIN_PRICE)
    with pytest.raises(ValueError, match="empty box"):
        generate_probes([(1.0, 0.0), (0.0, 1.0)], 8, rng, GOLDSTEIN_PRICE)


def test_probe_set_validates_shapes():
    with pytest.raises(ValueError, match="one value per point"):
        ProbeSet(np.zeros((4, 2)), np.zeros(3))


def test_select_pivots_takes_lowest_quota():
    rng = np.random.default_rng(3)
    probes = generate_probes(GP_BOX, 1024, rng, GOLDSTEIN_PRICE)
    state = select_pivots(probes, rng=rng)
    assert state.num_pivots == 154  # ceil(0.15 * 1024)
    lowest = np.sort(probes.values)[:154]
    np.testing.assert_array_equal(np.sort(state.values), lowest)
    assert state.threshold == np.sort(probes.values)[153]
    assert np.all(state.values <= state.threshold)


def test_select_pivots_cost_accounting():
    rng = np.random.default_rng(4)
    probes = generate_probes(GP_BOX, 1024, rng, GOLDSTEIN_PRICE)
    state = select_pivots(probes, rng=rng)
    assert state.optimal_k == optimal_iterations(154, 1024) == 1
    assert state.grover_iterations == state.optimal_k * (154 + state.rejected_draws)
    assert 0 <= state.rejected_draws <= 500


def test_select_pivots_amplified_success_level():
    # one step on 154/1024 marked lifts the marked mass to 0.8651...
    assert success_probability(154, 1024, 1) == pytest.approx(
        0.8651224374771118, abs=1e-12
    )
    # without amplification a random permutation of 1024 indices buries the
    # last of 154 marked ones near position 1017, i.e. ~860 rejections; the
    # amplified distribution cuts that by several times
    rng = np.random.default_rng(5)
    rejected = []
    for _ in range(20):
        probes = generate_probes(GP_BOX, 1024, rng, GOLDSTEIN_PRICE)
        rejected.append(select_pivots(probes, rng=rng).rejected_draws)
    assert 0 < np.mean(rejected) < 300


def test_select_pivots_all_equal_values():
    probes = ProbeSet(np.zeros((8, 2)) + 0.5, np.full(8, 7.0))
    state = select_pivots(probes, fraction=0.25, rng=np.random.default_rng(6))
    assert state.num_pivots == 2
    assert state.threshold == 7.0
    assert state.optimal_k == 0  # everything marked, nothing to amplify
    assert state.rejected_draws == 0


def test_select_pivots_draws_are_distinct():
    rng = np.random.default_rng(7)
    probes = generate_probes(GP_BOX, 64, rng, GOLDSTEIN_PRICE)
    state = select_pivots(probes, fraction=0.5, rng=rng)
    rows = {tuple(p) for p in state.points}
    assert len(rows) == state.num_pivots


def loop_select(probes, fraction, rng):
    """Sequential draws from the dense register: (chosen indices, rejected draws)."""
    n = len(probes)
    quota = math.ceil(fraction * n)
    threshold = np.partition(probes.values, quota - 1)[quota - 1]
    mask = probes.values <= threshold
    q = n.bit_length() - 1
    state = iterate(
        uniform_superposition(q), MarkedSet(q, mask), optimal_iterations(int(mask.sum()), n)
    )
    probs = state.probabilities()
    with np.errstate(divide="ignore"):
        keys = np.log(rng.uniform(size=n)) / np.where(probs > 0.0, probs, np.nan)
    keys = np.where(np.isnan(keys), -np.inf, keys)
    chosen, rejected = [], 0
    for idx in np.argsort(-keys, kind="stable"):
        if keys[idx] == -np.inf or len(chosen) == quota:
            break
        if mask[idx]:
            chosen.append(int(idx))
        else:
            rejected += 1
    if len(chosen) < quota:
        left = [i for i in np.flatnonzero(mask) if i not in set(chosen)]
        chosen += [int(left[i]) for i in rng.choice(len(left), size=quota - len(chosen), replace=False)]
    return chosen, rejected


@pytest.mark.parametrize("seed", range(5))
def test_select_pivots_matches_sequential_draws(seed):
    probes = generate_probes(GP_BOX, 256, np.random.default_rng(seed), GOLDSTEIN_PRICE)
    state = select_pivots(probes, rng=np.random.default_rng(seed + 100))
    chosen, rejected = loop_select(probes, 0.15, np.random.default_rng(seed + 100))
    np.testing.assert_array_equal(state.points, probes.points[chosen])
    assert state.rejected_draws == rejected


def population(kind, n, rng):
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "ties":  # four levels: the threshold level holds more than the quota
        return rng.integers(0, 4, size=n).astype(float)
    return np.full(n, 7.0)  # everything marked


@pytest.mark.parametrize("kind", ["continuous", "ties", "equal"])
@pytest.mark.parametrize("fraction", [0.05, 0.15, 0.3, 0.5, 0.8])
def test_select_pivots_matches_the_dense_register(kind, fraction):
    for q in range(1, 11):
        n = 1 << q
        values = population(kind, n, np.random.default_rng(q))
        probes = ProbeSet(np.arange(2.0 * n).reshape(n, 2), values)
        state = select_pivots(probes, fraction, np.random.default_rng(1000 + q))
        chosen, rejected = loop_select(probes, fraction, np.random.default_rng(1000 + q))
        np.testing.assert_array_equal(state.points, probes.points[chosen])
        assert state.rejected_draws == rejected


@pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
def test_select_pivots_quarter_marked_leaves_no_unmarked_mass(n):
    # One step on m = N/4 rotates the register onto the marked cells exactly.
    assert optimal_iterations(n // 4, n) == 1
    assert success_probability(n // 4, n, 1) == 1.0
    values = np.random.default_rng(n).permutation(n).astype(float)
    probes = ProbeSet(np.arange(2.0 * n).reshape(n, 2), values)
    for seed in range(3):
        state = select_pivots(probes, 0.25, np.random.default_rng(seed))
        chosen, rejected = loop_select(probes, 0.25, np.random.default_rng(seed))
        np.testing.assert_array_equal(state.points, probes.points[chosen])
        assert state.rejected_draws == rejected == 0


class ZeroAtRng:
    """Uniform draws of 0.5 except 0.0 at ``index`` (one or a list); ``choice`` from a seeded generator."""

    def __init__(self, index):
        self.index = index
        self.rng = np.random.default_rng(0)

    def uniform(self, size):
        u = np.full(size, 0.5)
        u[self.index] = 0.0
        return u

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)


def test_select_pivots_fallback_fills_quota_from_undrawable_marked():
    # A zero uniform gives index 0 (marked: values 0 and 1 fill the quota of
    # 2) a key of -inf, so it is never drawn; the fallback must add it.
    probes = ProbeSet(np.arange(16.0).reshape(8, 2), np.arange(8.0))
    state = select_pivots(probes, fraction=0.25, rng=ZeroAtRng(0))
    assert sorted(state.values) == [0.0, 1.0]
    chosen, rejected = loop_select(probes, 0.25, ZeroAtRng(0))
    np.testing.assert_array_equal(state.values, probes.values[chosen])
    assert state.rejected_draws == rejected
    assert state.grover_iterations == state.optimal_k * (2 + rejected)


def test_select_pivots_fallback_draws_the_rest_in_generator_order():
    # Three of the four marked probes (values 0 to 3) draw a zero uniform, so
    # the fallback picks all three with the generator's choice, not by index.
    probes = ProbeSet(np.arange(16.0).reshape(8, 2), np.arange(8.0))
    state = select_pivots(probes, fraction=0.5, rng=ZeroAtRng([0, 1, 2]))
    chosen, rejected = loop_select(probes, 0.5, ZeroAtRng([0, 1, 2]))
    assert chosen[0] == 3 and chosen[1:] != [0, 1, 2]
    np.testing.assert_array_equal(state.values, probes.values[chosen])
    assert state.rejected_draws == rejected


def test_select_pivots_equal_keys_draw_in_index_order():
    # Half marked, so no steps: every live key ties and draws run by index,
    # rejecting the unmarked probes 1, 3 and 5 before reaching marked 6.
    probes = ProbeSet(np.arange(16.0).reshape(8, 2), [0.0, 7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0])
    state = select_pivots(probes, fraction=0.5, rng=ZeroAtRng(7))
    chosen, rejected = loop_select(probes, 0.5, ZeroAtRng(7))
    assert state.optimal_k == 0 and chosen == [0, 2, 4, 6]
    np.testing.assert_array_equal(state.values, probes.values[chosen])
    assert state.rejected_draws == rejected == 3


@pytest.mark.parametrize("n, fraction", [(256, 0.3), (1024, 0.15)])
def test_rejected_draws_average_the_closed_form(n, fraction):
    # Draws in key order are exponential clocks: rate a per marked probe and
    # b per other one.  The quota-th marked arrival beats each unmarked clock
    # with probability prod_{i<q} a(m-i) / (a(m-i) + b), so
    # E[rejected] = (N - m) * (1 - that product).
    values = np.random.default_rng(n).permutation(n).astype(float)  # distinct
    probes = ProbeSet(np.zeros((n, 2)), values)
    quota = m = math.ceil(fraction * n)
    a, b = grover.class_probabilities(m, n, optimal_iterations(m, n))
    beaten = math.prod(a * (m - i) / (a * (m - i) + b) for i in range(quota))
    exact = (n - m) * (1.0 - beaten)
    seeds = 2000
    rejected = np.array(
        [select_pivots(probes, fraction, np.random.default_rng(s)).rejected_draws for s in range(seeds)]
    )
    stderr = rejected.std(ddof=1) / math.sqrt(seeds)
    assert abs(rejected.mean() - exact) < 4 * stderr
    assert exact == pytest.approx({256: 10.90, 1024: 124.48}[n], abs=0.01)


def test_select_pivots_copies_data():
    rng = np.random.default_rng(8)
    probes = generate_probes(GP_BOX, 64, rng, GOLDSTEIN_PRICE)
    state = select_pivots(probes, rng=rng)
    state.points[0, 0] = 99.0
    assert not np.any(probes.points[:, 0] == 99.0)


def test_select_pivots_validation():
    rng = np.random.default_rng(9)
    probes = generate_probes(GP_BOX, 64, rng, GOLDSTEIN_PRICE)
    with pytest.raises(ValueError, match="rng is required"):
        select_pivots(probes)
    with pytest.raises(ValueError, match="fraction"):
        select_pivots(probes, fraction=1.5, rng=rng)
    bad = ProbeSet(np.zeros((48, 2)), np.zeros(48))
    with pytest.raises(ValueError, match="power of two"):
        select_pivots(bad, rng=rng)


def test_boltzmann_ratio_frozen():
    w = boltzmann_weights(np.array([-186.7309, 0.0]), kT=50.0)
    assert w[0] / w[1] == pytest.approx(41.872027393182606, rel=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_boltzmann_uniform_for_equal_values():
    w = boltzmann_weights(np.full(10, 3.3))
    np.testing.assert_allclose(w, 0.1, atol=1e-15)


def test_boltzmann_monotone_and_safe():
    w = boltzmann_weights(np.array([0.0, 1e9, 1e12]), kT=50.0)
    assert np.isfinite(w).all()
    assert w[0] > w[1] >= w[2]
    assert w.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="kT"):
        boltzmann_weights(np.array([1.0]), kT=-1.0)


def pivot_state_for_resampling(points, values, weights, sigma):
    state = PivotState(
        points=np.asarray(points, dtype=float),
        values=np.asarray(values, dtype=float),
        threshold=float(np.max(values)),
        optimal_k=1,
        grover_iterations=len(values),
        rejected_draws=0,
    )
    return state, np.asarray(weights, dtype=float), np.asarray(sigma, dtype=float)


def test_resample_elitism_keeps_pivots_first():
    state, weights, sigma = pivot_state_for_resampling(
        [[0.1, 0.2], [0.3, 0.4]], [1.0, 2.0], [0.5, 0.5], [0.01, 0.01]
    )
    box = [(0.0, 1.0), (0.0, 1.0)]
    probes = resample(state, weights, sigma, 8, box, np.random.default_rng(1), SPHERE)
    assert len(probes) == 8
    np.testing.assert_array_equal(probes.points[:2], state.points)
    np.testing.assert_array_equal(probes.values[:2], state.values)


def test_resample_without_elitism_all_children():
    state, weights, sigma = pivot_state_for_resampling([[0.5, 0.5]], [0.5], [1.0], [0.0, 0.0])
    box = [(0.0, 1.0), (0.0, 1.0)]
    probes = resample(state, weights, sigma, 8, box, np.random.default_rng(2), SPHERE, elitism=False)
    assert len(probes) == 8
    np.testing.assert_array_equal(probes.points, np.full((8, 2), 0.5))


def test_resample_zero_sigma_duplicates_pivots():
    state, weights, sigma = pivot_state_for_resampling(
        [[0.2, 0.8], [0.6, 0.4]], [1.0, 2.0], [0.7, 0.3], [0.0, 0.0]
    )
    box = [(0.0, 1.0), (0.0, 1.0)]
    probes = resample(state, weights, sigma, 16, box, np.random.default_rng(3), SPHERE)
    pivot_rows = {tuple(p) for p in state.points}
    assert all(tuple(p) in pivot_rows for p in probes.points)


def test_resample_clamps_into_box():
    state, weights, sigma = pivot_state_for_resampling([[0.0, 0.0]], [0.0], [1.0], [100.0, 100.0])
    box = [(-1.0, 1.0), (-1.0, 1.0)]
    probes = resample(state, weights, sigma, 64, box, np.random.default_rng(4), SPHERE)
    assert probes.points.min() >= -1.0
    assert probes.points.max() <= 1.0
    # with that sigma nearly every child lands on the boundary
    assert np.mean(np.abs(probes.points) == 1.0) > 0.9


def test_resample_offspring_spread_matches_sigma():
    state, weights, sigma = pivot_state_for_resampling([[0.0, 0.0]], [0.0], [1.0], [0.05, 0.05])
    box = [(-10.0, 10.0), (-10.0, 10.0)]
    probes = resample(state, weights, sigma, 4097, box, np.random.default_rng(5), SPHERE)
    children = probes.points[1:]
    assert children.std(axis=0) == pytest.approx([0.05, 0.05], rel=0.08)


def test_resample_follows_weights():
    state, weights, sigma = pivot_state_for_resampling(
        [[-5.0, 0.0], [5.0, 0.0]], [0.0, 1.0], [0.9, 0.1], [1e-6, 1e-6]
    )
    box = [(-10.0, 10.0), (-10.0, 10.0)]
    probes = resample(state, weights, sigma, 2002, box, np.random.default_rng(6), SPHERE)
    children = probes.points[2:]
    near_first = np.mean(children[:, 0] < 0)
    assert near_first == pytest.approx(0.9, abs=0.03)


def test_resample_values_match_objective():
    state, weights, sigma = pivot_state_for_resampling([[0.3, 0.3]], [0.18], [1.0], [0.1, 0.1])
    box = [(0.0, 1.0), (0.0, 1.0)]
    probes = resample(state, weights, sigma, 32, box, np.random.default_rng(7), SPHERE)
    np.testing.assert_allclose(probes.values, SPHERE.batch(probes.points), rtol=1e-12)


def test_resample_rejects_population_below_pivots():
    state, weights, sigma = pivot_state_for_resampling(
        [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]], [1, 2, 3], [0.4, 0.3, 0.3], [0.1, 0.1]
    )
    with pytest.raises(ValueError, match="smaller than pivot count"):
        resample(state, weights, sigma, 2, [(0.0, 1.0), (0.0, 1.0)], np.random.default_rng(8), SPHERE)


def test_resample_draws_bases_as_rng_choice_does():
    # Two values underflow to zero weight; zero sigma makes each child its base.
    values = np.array([0.0, 3.0, 4.0e4, 5.0e4, 40.0])
    weights = boltzmann_weights(values, kT=50.0)
    assert weights[2] == weights[3] == 0.0
    points = np.linspace(0.1, 0.5, 5)[:, None] * [1.0, 1.0]
    state, weights, sigma = pivot_state_for_resampling(points, values, weights, [0.0, 0.0])
    rng, reference = np.random.default_rng(12), np.random.default_rng(12)
    probes = resample(state, weights, sigma, 600, [(0.0, 1.0), (0.0, 1.0)], rng, SPHERE)
    base = reference.choice(5, size=595, p=weights)
    reference.normal(0.0, 1.0, size=(595, 2))
    np.testing.assert_array_equal(probes.points[5:], points[base])
    assert rng.random() == reference.random()


def guide_cases():
    """(name, weights): the weight shapes the guide table must get right."""
    zero_runs = boltzmann_weights(np.array([0.0, 3.0, 4.0e4, 5.0e4, 40.0]), kT=50.0)
    dominant = np.full(154, 1e-13)
    dominant[77] = 1.0 - 153e-13
    tiny = np.full(300, 1e-7)  # 299 cdf entries inside one guide cell
    tiny[0] = 1.0 - 299e-7
    tiny_middle = np.full(400, 1e-7)
    tiny_middle[[0, -1]] = 0.5 - 199e-7
    boltzmann = boltzmann_weights(np.random.default_rng(1).uniform(-186.7, 200.0, 154))
    uniform = np.full(1024, 1.0 / 1024)  # one cdf entry on every cell edge
    return [
        ("zero-runs", zero_runs), ("dominant", dominant), ("tiny-in-one-cell", tiny),
        ("tiny-mid-cell", tiny_middle), ("boltzmann", boltzmann), ("uniform", uniform),
        ("single", np.array([1.0])),
    ]


@pytest.mark.parametrize("name, weights", guide_cases(), ids=[c[0] for c in guide_cases()])
def test_inverse_cdf_draw_is_searchsorted(name, weights):
    assert weights.min() >= 0 and math.fsum(weights) == pytest.approx(1.0)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    below_one = np.nextafter(1.0, 0.0)
    edges = np.arange(pivot._GUIDE_CELLS) / pivot._GUIDE_CELLS
    inner = cdf[cdf < 1.0]
    u = np.concatenate([
        [0.0, below_one, 5e-324],
        inner,  # u equal to a cdf value
        np.nextafter(inner, 0.0),
        np.nextafter(inner, 1.0),
        edges,
        np.nextafter(edges[1:], 0.0),
        np.random.default_rng(len(weights)).random(5000),
    ])
    assert u.min() == 0.0 and u.max() == below_one
    expected = np.searchsorted(cdf, u, side="right")
    np.testing.assert_array_equal(pivot._inverse_cdf(cdf, u), expected)
    assert expected.max() < len(weights)


@pytest.mark.parametrize(
    "weights, match",
    [
        ([0.5, 0.5], r"shape \(3,\)"),
        ([1.2, -0.2, 0.0], "non-negative"),
        ([np.nan, 0.5, 0.5], "NaN"),
        ([0.3, 0.3, 0.3], "sum to 1"),
    ],
)
def test_resample_rejects_bad_weights(weights, match):
    state, weights, sigma = pivot_state_for_resampling(
        [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]], [1, 2, 3], weights, [0.1, 0.1]
    )
    with pytest.raises(ValueError, match=match):
        resample(state, weights, sigma, 8, [(0.0, 1.0), (0.0, 1.0)], np.random.default_rng(9), SPHERE)


@pytest.mark.parametrize(
    "sigma, match",
    [
        ([np.nan, 1.0], r"sigma must be finite and non-negative, got \[nan, 1.0\]"),
        (np.nan, r"sigma must be finite and non-negative, got nan"),
        ([np.inf, 1.0], r"sigma must be finite and non-negative, got \[inf, 1.0\]"),
        ([-0.1, 1.0], r"sigma must be finite and non-negative, got \[-0.1, 1.0\]"),
        ([0.1, 0.1, 0.1], r"sigma must be a number or have shape \(2,\), got \(3,\)"),
        ([[0.1, 0.1]], r"sigma must be a number or have shape \(2,\), got \(1, 2\)"),
    ],
)
def test_resample_rejects_bad_sigma(sigma, match):
    state, weights, _ = pivot_state_for_resampling(
        [[0.1, 0.1], [0.2, 0.2]], [1, 2], [0.5, 0.5], [0.1, 0.1]
    )
    with pytest.raises(ValueError, match=match):
        resample(state, weights, sigma, 8, [(0.0, 1.0), (0.0, 1.0)], np.random.default_rng(9), SPHERE)


def test_resample_takes_one_width_for_every_coordinate():
    state, weights, _ = pivot_state_for_resampling([[0.5, 0.5]], [0.5], [1.0], [0.0, 0.0])
    box = [(0.0, 1.0), (0.0, 1.0)]
    one = resample(state, weights, 0.05, 64, box, np.random.default_rng(3), SPHERE)
    each = resample(state, weights, [0.05, 0.05], 64, box, np.random.default_rng(3), SPHERE)
    assert one.points.tobytes() == each.points.tobytes()


def test_search_sphere_converges_to_origin():
    result = pivot_grover_search(
        SPHERE, [(-1.0, 1.0), (-1.0, 1.0)], 6, PivotConfig(), np.random.default_rng(0)
    )
    assert result.converged
    assert result.best_value == pytest.approx(0.0, abs=1e-8)
    assert result.best_point == pytest.approx((0.0, 0.0), abs=1e-4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_gp_reaches_global_minimum(seed):
    result = pivot_grover_search(
        GOLDSTEIN_PRICE, GP_BOX, 10, PivotConfig(), np.random.default_rng(seed)
    )
    assert result.best_value >= 3.0  # continuous global minimum is a bound
    assert result.best_value == pytest.approx(3.0, abs=1e-4)
    assert result.converged


def test_search_best_is_monotone():
    result = pivot_grover_search(
        GOLDSTEIN_PRICE, GP_BOX, 8, PivotConfig(), np.random.default_rng(3)
    )
    bests = [g.best_value for g in result.generations]
    assert all(a >= b for a, b in zip(bests, bests[1:]))
    assert bests[-1] == result.best_value


def test_search_stall_window_is_flat():
    config = PivotConfig()
    result = pivot_grover_search(
        SPHERE, [(-1.0, 1.0), (-1.0, 1.0)], 6, config, np.random.default_rng(4)
    )
    assert result.converged
    tail = result.generations[-config.stall_generations :]
    assert len({g.best_value for g in tail}) == 1


def test_search_generation_cap_reports_not_converged():
    config = PivotConfig(max_generations=3)
    result = pivot_grover_search(
        GOLDSTEIN_PRICE, GP_BOX, 6, config, np.random.default_rng(5)
    )
    assert result.num_generations == 3
    assert not result.converged


def test_search_sigma_decays_to_floor():
    config = PivotConfig(sigma_decay=0.5, sigma_floor=0.01, max_generations=30)
    result = pivot_grover_search(
        GOLDSTEIN_PRICE, GP_BOX, 6, config, np.random.default_rng(6)
    )
    sigma0 = (3.0 - (-3.2)) / 8.0
    assert result.generations[0].sigma == (sigma0, sigma0)
    assert result.generations[1].sigma == pytest.approx((sigma0 * 0.5,) * 2)
    assert result.generations[-1].sigma == (0.01, 0.01)


def test_search_iteration_total_matches_records():
    result = pivot_grover_search(
        GOLDSTEIN_PRICE, GP_BOX, 8, PivotConfig(), np.random.default_rng(7)
    )
    assert result.total_iterations == sum(g.grover_iterations for g in result.generations)
    assert all(g.num_pivots == math.ceil(0.15 * 256) for g in result.generations)


def search_pin(result):
    digest = hashlib.sha256(repr(result.generations).encode()).hexdigest()[:16]
    return result.best_value.hex(), digest


@pytest.mark.parametrize(
    "seed, elitism, best, digest",
    [
        (0, True, "-0x1.7573999414486p+7", "63c8a873fb155280"),
        (1, True, "-0x1.757639aea78d4p+7", "e6462dfd66ba3789"),
        (2, True, "-0x1.757639ae8a8b6p+7", "f5cd727815bdaeb5"),
        (3, False, "-0x1.757603461672ap+7", "891c134c4c7f55eb"),
    ],
)
def test_shubert_search_is_pinned(seed, elitism, best, digest):
    # Best value (hex) and a digest of every generation record, fixed by a
    # seeded run: each float, index and draw of the loop feeds into them.
    config = PivotConfig(elitism=elitism)
    result = pivot_grover_search(
        SHUBERT, [(-10, 10)] * 2, 10, config, np.random.default_rng(seed)
    )
    assert search_pin(result) == (best, digest)


def test_search_box_arity_checked():
    with pytest.raises(ValueError, match="axes"):
        pivot_grover_search(
            GOLDSTEIN_PRICE, [(-1.0, 1.0)], 6, PivotConfig(), np.random.default_rng(0)
        )


def test_search_refuses_oversized_register_before_probing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the register check")

    monkeypatch.setattr(pivot, "generate_probes", refuse)
    with pytest.raises(ValueError, match="30 qubits exceeds the register cap of 24"):
        pivot_grover_search(SPHERE, GP_BOX, 30, PivotConfig(), np.random.default_rng(0))


def test_search_builds_no_dense_register(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a dense register")

    monkeypatch.setattr(statevector, "iterate", refuse)
    monkeypatch.setattr(pivot, "iterate", refuse)
    monkeypatch.setattr(statevector.Statevector, "__init__", refuse)
    result = pivot_grover_search(
        SHUBERT, [(-10.0, 10.0), (-10.0, 10.0)], 6, PivotConfig(max_generations=5),
        np.random.default_rng(0),
    )
    assert result.num_generations == 5


def test_search_over_nan_region_is_rejected():
    holes = Objective("holes", 2, batch_fn=lambda x, y: np.where(x > 0, np.nan, y))
    with pytest.raises(ValueError, match="objective 'holes' gave .* non-finite values"):
        pivot_grover_search(holes, GP_BOX, 6, PivotConfig(), np.random.default_rng(0))


def test_growth_config_validation():
    with pytest.raises(ValueError, match="method"):
        GrowthConfig(method=3)
    with pytest.raises(ValueError, match="qubit counts"):
        GrowthConfig(qubits_per_axis=0)
    with pytest.raises(ValueError, match="bond"):
        GrowthConfig(bond=0.0)
    # Every stage register is checked against the cap when the config is built;
    # method 1 always searches 10 qubits, so its qubits_per_axis is unused.
    with pytest.raises(RegisterTooLarge, match="26 qubits exceeds the register cap"):
        GrowthConfig(qubits_per_axis=13)
    with pytest.raises(RegisterTooLarge, match="25 qubits exceeds the register cap"):
        GrowthConfig(trimer_qubits=25)
    assert GrowthConfig(method=1, qubits_per_axis=13).method == 1
    config = GrowthConfig()
    assert config.method == 2
    assert config.qubits_per_axis == 5
    assert config.bond is None
    assert config.trimer_qubits == 10
    assert config.mirror_fifth


def test_growth_rejects_bad_target():
    with pytest.raises(ValueError, match="target_atoms"):
        lj_growth(3, GrowthConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="target_atoms"):
        lj_growth(6, GrowthConfig(), np.random.default_rng(0))


def test_growth_with_given_bond_skips_trimer_search():
    result = lj_growth(4, GrowthConfig(bond=1.0), np.random.default_rng(4))
    seed_stage = result.stages[0]
    assert seed_stage.num_atoms == 3
    assert seed_stage.search is None
    assert seed_stage.box is None
    assert seed_stage.energy == pytest.approx(3 * lj_pair(1.0), abs=1e-12)
    assert [s.num_atoms for s in result.stages] == [3, 4]


def test_growth_runs_trimer_stage_by_default():
    result = lj_growth(4, GrowthConfig(), np.random.default_rng(7))
    seed_stage = result.stages[0]
    assert seed_stage.search is not None
    assert seed_stage.box == TRIMER_BOX
    bond = seed_stage.search.best_point[0]
    side = np.linalg.norm(seed_stage.positions[0] - seed_stage.positions[1])
    assert side == pytest.approx(bond, abs=1e-12)
    assert seed_stage.energy == pytest.approx(-3.0, abs=1e-3)


def test_growth_method_two_pins_x():
    result = lj_growth(5, GrowthConfig(bond=1.0), np.random.default_rng(4))
    added = result.final_positions[3:]
    np.testing.assert_array_equal(added[:, 0], [0.0, 0.0])
    assert result.stages[1].box == [(0.01, 1.01), (0.01, 1.01)]
    assert result.stages[2].box == [(0.01, 1.01), (-1.01, -0.01)]


def test_growth_stage_energies_descend():
    result = lj_growth(5, GrowthConfig(bond=1.0), np.random.default_rng(4))
    energies = [s.energy for s in result.stages]
    assert energies[0] == pytest.approx(-3.0, abs=1e-12)
    assert energies[1] < energies[0]
    assert energies[2] < energies[1]
    assert result.final_energy == energies[-1]


def test_growth_energy_is_recomputable():
    result = lj_growth(5, GrowthConfig(bond=1.0), np.random.default_rng(4))
    recomputed = ClusterGeometry(result.final_positions).fixed_energy
    assert result.final_energy == recomputed
    assert result.total_iterations == sum(
        s.search.total_iterations for s in result.stages if s.search is not None
    )


def test_growth_fifth_atom_mirrors_below_plane():
    mirrored = lj_growth(5, GrowthConfig(bond=1.0), np.random.default_rng(4))
    assert mirrored.final_positions[4, 2] < 0
    flat = lj_growth(
        5, GrowthConfig(bond=1.0, mirror_fifth=False), np.random.default_rng(4)
    )
    assert flat.stages[2].box == [(0.01, 1.01), (0.01, 1.01)]
    assert flat.final_positions[4, 2] > 0
    # the upper window collides with the apex atom: mirroring wins
    assert mirrored.final_energy < flat.final_energy


def test_growth_method_one_frees_x():
    result = lj_growth(4, GrowthConfig(method=1, bond=1.0), np.random.default_rng(4))
    stage = result.stages[1]
    assert stage.box == [(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)]
    assert len(stage.search.best_point) == 3
    np.testing.assert_allclose(stage.positions[3], stage.search.best_point)
    # converges to the tetrahedron apex over the triangle centroid
    assert result.final_energy == pytest.approx(-6.0, abs=1e-3)


def growth_pin(result):
    digest = hashlib.sha256(result.final_positions.tobytes()).hexdigest()[:16]
    return result.final_energy.hex(), digest


@pytest.mark.parametrize(
    "method, mirror_fifth, energy, digest, boxes",
    [
        (1, True, "-0x1.234d09c7a883dp+3", "74e59358555f71c5",
         [[(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)], [(-0.5, 0.5), (0.01, 1.01), (-1.01, -0.01)]]),
        (1, False, "-0x1.ccc973fde2eb8p+2", "cbd25cb4719d6cd3",
         [[(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)], [(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)]]),
        (2, True, "-0x1.234d0a17da83fp+3", "79d5e65a3b177fa2",
         [[(0.01, 1.01), (0.01, 1.01)], [(0.01, 1.01), (-1.01, -0.01)]]),
        (2, False, "0x1.cc40974d32d52p+3", "c723add51fd91eb8",
         [[(0.01, 1.01), (0.01, 1.01)], [(0.01, 1.01), (0.01, 1.01)]]),
    ],
)
def test_growth_is_pinned_per_method_and_mirroring(method, mirror_fifth, energy, digest, boxes):
    # Final energy (hex) and a position digest, both fixed by a seeded run.
    config = GrowthConfig(method=method, bond=1.0, mirror_fifth=mirror_fifth)
    result = lj_growth(5, config, np.random.default_rng(4))
    assert growth_pin(result) == (energy, digest)
    assert [stage.box for stage in result.stages[1:]] == boxes


def test_growth_default_config_is_pinned():
    result = lj_growth(5, GrowthConfig(), np.random.default_rng(np.random.SeedSequence(0)))
    assert growth_pin(result) == ("-0x1.234b22ef29718p+3", "528cd8c8cfa27a79")
    assert result.stages[0].box == [(0.0001, 2.0), (0.0001, math.pi)]
