"""Hybrid pivot search: selection accounting, resampling, cluster growth."""

import hashlib
import math
import re

import numpy as np
import pytest

import grovermin.pivot as pivot
import grovermin.statevector as statevector
from grovermin.encoding import RegisterTooLarge
from grovermin.grover import optimal_iterations, success_probability
from grovermin.objectives import ClusterGeometry, GOLDSTEIN_PRICE, SHUBERT, Objective, lj_pair
from grovermin.statevector import MarkedSet, iterate, uniform_superposition
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


@pytest.mark.parametrize("value", [2.5, True, 20.0], ids=["float", "bool", "integral-float"])
@pytest.mark.parametrize("name", ["stall_generations", "max_generations"])
def test_pivot_config_refuses_a_count_that_is_not_an_integer(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        PivotConfig(**{name: value})
    assert getattr(PivotConfig(**{name: np.int64(7)}), name) == 7


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
    for n in (2.5, 8.0, True):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {n!r}$"):
            generate_probes(GP_BOX, n, RefusingRng(), GOLDSTEIN_PRICE)
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


def test_selection_cost_memo_gives_the_formula_floats():
    formula = pivot.selection_cost.__wrapped__
    pivot.selection_cost.cache_clear()
    keys = sorted({
        (m, size, quota)
        for size in (8, 512, 1024)
        for m, quota in ((1, 1), (3, 2), (size // 8, size // 8), (size // 2, size // 4), (size, 1))
    })
    for key in keys + keys:  # a miss, then a hit
        got = pivot.selection_cost(*key)
        assert got == formula(*key) and list(map(type, got)) == [int, float]
    assert pivot.selection_cost.cache_info().hits == len(keys)
    # The memo is the cost select_pivots records, with no rng call of its own.
    rng = np.random.default_rng(4)
    probes = generate_probes(GP_BOX, 1024, rng, GOLDSTEIN_PRICE)
    state = select_pivots(probes, rng=rng)
    assert (state.optimal_k, state.rejected_draws) == formula(154, 1024, 154)
    # A numpy count is a key of its own: its numpy floats reach no int caller.
    pivot.selection_cost.cache_clear()
    assert pivot.selection_cost(np.int64(154), 1024, 154) == formula(np.int64(154), 1024, 154)
    assert list(map(type, pivot.selection_cost(154, 1024, 154))) == [int, float]


def test_selection_cost_memo_stays_bounded():
    pivot.selection_cost.cache_clear()
    for m in range(1, 3 * pivot.SELECTION_MEMO_SIZE):
        pivot.selection_cost(m, 1 << 12, 1)
    info = pivot.selection_cost.cache_info()
    assert info.maxsize == pivot.SELECTION_MEMO_SIZE == info.currsize
    assert info.misses == 3 * pivot.SELECTION_MEMO_SIZE - 1 and info.hits == 0


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


class RefusingRng:
    """A generator stand-in whose every method fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"called rng.{name}")


@pytest.mark.parametrize("seed", range(5))
def test_select_pivots_matches_sequential_draws(seed):
    # Distinct values mark exactly the quota, so sequential draws from the
    # dense register end holding every marked probe: the quantile set, which
    # select_pivots takes in index order without touching the generator.
    probes = generate_probes(GP_BOX, 256, np.random.default_rng(seed), GOLDSTEIN_PRICE)
    state = select_pivots(probes, rng=RefusingRng())
    chosen, _ = loop_select(probes, 0.15, np.random.default_rng(seed + 100))
    np.testing.assert_array_equal(state.points, probes.points[np.sort(chosen)])


def population(kind, n, rng):
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "ties":  # four levels: the threshold level holds more than the quota
        return rng.integers(0, 4, size=n).astype(float)
    return np.full(n, 7.0)  # everything marked


def expected_rejections(a, b, n, m, quota):
    """(N - m)(1 - prod_{i<quota} a(m-i) / (a(m-i) + b)), one term at a time."""
    return (n - m) * (1.0 - math.prod(a * (m - i) / (a * (m - i) + b) for i in range(quota)))


@pytest.mark.parametrize("kind", ["continuous", "ties", "equal"])
@pytest.mark.parametrize("fraction", [0.05, 0.15, 0.3, 0.5, 0.8])
def test_select_pivots_matches_the_dense_register(kind, fraction):
    # The pivots are quota distinct marked probes: every one, in index order
    # and with no rng call, unless ties mark more.  The cost is the closed
    # form over the two probabilities the dense register holds.
    for q in range(1, 11):
        n = 1 << q
        values = population(kind, n, np.random.default_rng(q))
        probes = ProbeSet(np.arange(2.0 * n).reshape(n, 2), values)
        rng = RefusingRng() if kind == "continuous" else np.random.default_rng(1000 + q)
        state = select_pivots(probes, fraction, rng)
        quota = math.ceil(fraction * n)
        mask = values <= np.sort(values)[quota - 1]
        chosen = (state.points[:, 0] / 2).astype(int)
        assert len(set(chosen.tolist())) == quota and mask[chosen].all()
        if kind == "continuous":
            np.testing.assert_array_equal(chosen, np.flatnonzero(mask))
        m = int(mask.sum())
        k = optimal_iterations(m, n)
        probs = iterate(uniform_superposition(q), MarkedSet(q, mask), k).probabilities()
        a, b = probs[mask].mean(), probs[~mask].mean() if m < n else 0.0
        exact = expected_rejections(a, b, n, m, quota)
        assert state.optimal_k == k
        assert state.rejected_draws == pytest.approx(exact, rel=1e-9, abs=1e-9)
        assert state.grover_iterations == k * (quota + state.rejected_draws)


def test_select_pivots_breaks_ties_uniformly():
    # Threshold value 1 marks 12 probes for a quota of 8: each is chosen in
    # 8/12 of the seeds, and the probes above the threshold never are.
    values = np.repeat([0.0, 1.0, 2.0], [4, 8, 4])[np.random.default_rng(0).permutation(16)]
    probes = ProbeSet(np.arange(32.0).reshape(16, 2), values)
    seeds = 3000
    counts = np.zeros(16)
    for seed in range(seeds):
        state = select_pivots(probes, 0.5, np.random.default_rng(seed))
        chosen = (state.points[:, 0] / 2).astype(int)
        assert len(set(chosen.tolist())) == 8
        counts[chosen] += 1
    marked = values <= 1.0
    assert counts[~marked].sum() == 0
    p = 8 / 12
    stderr = math.sqrt(p * (1 - p) / seeds)
    assert np.abs(counts[marked] / seeds - p).max() < 4 * stderr


@pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
def test_select_pivots_quarter_marked_leaves_no_unmarked_mass(n):
    # One step on m = N/4 rotates the register onto the marked cells exactly.
    assert optimal_iterations(n // 4, n) == 1
    assert success_probability(n // 4, n, 1) == 1.0
    values = np.random.default_rng(n).permutation(n).astype(float)
    probes = ProbeSet(np.arange(2.0 * n).reshape(n, 2), values)
    state = select_pivots(probes, 0.25, RefusingRng())
    assert state.rejected_draws == 0.0
    assert state.grover_iterations == n // 4
    for seed in range(3):
        assert loop_select(probes, 0.25, np.random.default_rng(seed))[1] == 0


@pytest.mark.parametrize("n, fraction", [(256, 0.3), (1024, 0.15)])
def test_rejected_draws_average_the_closed_form(n, fraction):
    # The recorded rejections are the expectation of the dense register's
    # sequential draws without replacement, which loop_select samples.
    seeds = 1500
    for kind in ("continuous", "ties", "equal"):
        probes = ProbeSet(np.zeros((n, 2)), population(kind, n, np.random.default_rng(n)))
        state = select_pivots(probes, fraction, np.random.default_rng(0))
        rejected = np.array([loop_select(probes, fraction, np.random.default_rng(s))[1] for s in range(seeds)])
        stderr = rejected.std(ddof=1) / math.sqrt(seeds)
        assert abs(rejected.mean() - state.rejected_draws) <= 4 * stderr, kind
        if kind == "continuous":
            assert state.rejected_draws == pytest.approx({256: 10.90, 1024: 124.48}[n], abs=0.01)
        if kind == "equal":
            assert state.rejected_draws == 0.0


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


@pytest.mark.parametrize(
    "values, match",
    [
        ([], "at least one value"),
        ([-np.inf, 1.0], "finite least value, got -inf"),
        ([np.inf, np.inf], "finite least value, got inf"),
        ([np.nan, 2.0], "finite least value, got nan"),
        ([2.0, np.nan], "finite least value, got nan"),
    ],
)
def test_boltzmann_refuses_what_it_cannot_weight(values, match):
    with np.errstate(all="raise"):  # refused before any arithmetic warns
        with pytest.raises(ValueError, match=match):
            boltzmann_weights(np.array(values, dtype=float))


def test_boltzmann_weights_an_infinite_value_zero():
    # Only the least value must be finite: a larger infinite one gets no weight.
    np.testing.assert_array_equal(boltzmann_weights(np.array([1.0, np.inf])), [1.0, 0.0])


def test_boltzmann_in_place_is_bitwise_the_expression():
    values = np.random.default_rng(8).uniform(-186.7, 210.0, 154)
    for kT in (50.0, 0.5, 1e-3):
        w = np.exp(-(values - values.min()) / kT)
        assert boltzmann_weights(values, kT).tobytes() == (w / w.sum()).tobytes()


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


def test_probes_and_resampling_refuse_an_oversized_population(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the register check")

    monkeypatch.setattr(Objective, "batch", refuse)
    cells = (1 << 24) + 1
    with pytest.raises(RegisterTooLarge, match="25 qubits exceeds the register cap of 24"):
        generate_probes(GP_BOX, cells, RefusingRng(), SPHERE)
    state, weights, sigma = pivot_state_for_resampling([[0.5, 0.5]], [0.5], [1.0], [0.1, 0.1])
    for elitism in (True, False):
        with pytest.raises(RegisterTooLarge, match="25 qubits exceeds the register cap of 24"):
            resample(state, weights, sigma, cells, GP_BOX, RefusingRng(), SPHERE, elitism)


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
    # The count-built guide table is the binary searches it replaces.
    searched = cdf.searchsorted(edges, side="right")
    np.testing.assert_array_equal(pivot._guide_table(cdf), searched)


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


@pytest.mark.parametrize("excess", [2.0, -2.0, 0.5, -0.5])
def test_resample_checks_the_weight_sum_at_its_tolerance(excess):
    # A sum past 1 +- _WEIGHT_TOL is refused, printed as a Python float;
    # one within half of it is drawn from.
    weights = np.array([0.25, 0.25, 0.5]) * (1.0 + excess * pivot._WEIGHT_TOL)
    total = float(weights.sum())
    state, weights, sigma = pivot_state_for_resampling(
        [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]], [1, 2, 3], weights, [0.1, 0.1]
    )
    box = [(0.0, 1.0), (0.0, 1.0)]
    if abs(excess) < 1:
        assert len(resample(state, weights, sigma, 8, box, np.random.default_rng(9), SPHERE)) == 8
        return
    message = f"weights must sum to 1, got {total!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        resample(state, weights, sigma, 8, box, np.random.default_rng(9), SPHERE)


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
        (0, True, "-0x1.757639aea9564p+7", "1360119175b99f4d"),
        (1, True, "-0x1.757639aea1f13p+7", "63e17e6d1e997f35"),
        (2, True, "-0x1.75757c9006e81p+7", "770903f6b91a0d39"),
        (3, False, "-0x1.757639aea1bb3p+7", "c857e393acbb86e1"),
    ],
    ids=["0-True", "1-True", "2-True", "3-False"],
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


@pytest.mark.parametrize(
    "qubits, config, message",
    [
        (-1, PivotConfig(), "qubits must be an integer >= 1, got -1"),
        (0, PivotConfig(), "qubits must be an integer >= 1, got 0"),
        (1.5, PivotConfig(), "qubits must be an integer >= 1, got 1.5"),
        (True, PivotConfig(), "qubits must be an integer >= 1, got True"),
        (
            20,
            PivotConfig(sigma_scale=1e-310),
            "initial sigma (hi - lo) / sigma_scale overflows, got [inf, inf]",
        ),
    ],
    ids=["qubits-negative", "qubits-0", "qubits-float", "qubits-bool", "sigma-overflows"],
)
def test_search_checks_its_arguments_before_drawing(qubits, config, message):
    # The generator refuses every call, so nothing was drawn or evaluated.
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        pivot_grover_search(SPHERE, GP_BOX, qubits, config, RefusingRng())


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


@pytest.mark.parametrize("value", [2.5, True, 2.0], ids=["float", "bool", "integral-float"])
@pytest.mark.parametrize("name", ["method", "qubits_per_axis", "trimer_qubits"])
def test_growth_config_refuses_a_count_that_is_not_an_integer(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        GrowthConfig(**{name: value})
    assert getattr(GrowthConfig(**{name: np.int64(2)}), name) == 2


def test_growth_config_validation():
    with pytest.raises(ValueError, match="method"):
        GrowthConfig(method=3)
    with pytest.raises(ValueError, match="qubits_per_axis must be >= 1, got 0"):
        GrowthConfig(qubits_per_axis=0)
    with pytest.raises(ValueError, match="trimer_qubits must be >= 2, got 1"):
        GrowthConfig(trimer_qubits=1)
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
    # Refused before the trimer search draws anything.
    for target in (3, 6, 4.0, True):
        with pytest.raises(ValueError, match=rf"^target_atoms must be 4 or 5, got {target!r}$"):
            lj_growth(target, GrowthConfig(), RefusingRng())


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
        (1, True, "-0x1.234d0a3246f47p+3", "372dae15ae1f7a96",
         [[(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)], [(-0.5, 0.5), (0.01, 1.01), (-1.01, -0.01)]]),
        (1, False, "-0x1.cccba42b25378p+2", "a16721e6acce0c71",
         [[(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)], [(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)]]),
        (2, True, "-0x1.234d09f40fa49p+3", "3b536702e938baff",
         [[(0.01, 1.01), (0.01, 1.01)], [(0.01, 1.01), (-1.01, -0.01)]]),
        (2, False, "0x1.cc42557c68334p+3", "bdc2c7e64927747e",
         [[(0.01, 1.01), (0.01, 1.01)], [(0.01, 1.01), (0.01, 1.01)]]),
    ],
    ids=["1-True", "1-False", "2-True", "2-False"],
)
def test_growth_is_pinned_per_method_and_mirroring(method, mirror_fifth, energy, digest, boxes):
    # Final energy (hex) and a position digest, both fixed by a seeded run.
    config = GrowthConfig(method=method, bond=1.0, mirror_fifth=mirror_fifth)
    result = lj_growth(5, config, np.random.default_rng(4))
    assert growth_pin(result) == (energy, digest)
    assert [stage.box for stage in result.stages[1:]] == boxes


def test_growth_default_config_is_pinned():
    result = lj_growth(5, GrowthConfig(), np.random.default_rng(np.random.SeedSequence(0)))
    assert growth_pin(result) == ("-0x1.234d09adf32d2p+3", "301d891fb5ce8e11")
    assert result.stages[0].box == [(0.0001, 2.0), (0.0001, math.pi)]
