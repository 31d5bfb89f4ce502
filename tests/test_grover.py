"""Amplification steps against the closed-form success probability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from grovermin.grover import (
    amplify,
    class_probabilities,
    iterate,
    measured_success_probability,
    optimal_iterations,
    sample,
    success_probability,
)
from grovermin.statevector import (
    MarkedSet,
    marked_probability,
    uniform_superposition,
)


def test_one_step_two_qubits_is_certain():
    marked = MarkedSet.from_indices(2, [1])
    state, k = amplify(marked)
    assert k == 1
    np.testing.assert_allclose(state.amplitudes, [0, 1, 0, 0], atol=1e-12)
    assert success_probability(1, 4, 1) == pytest.approx(1.0, abs=1e-15)


def test_zero_iterations_is_identity():
    state = uniform_superposition(3)
    marked = MarkedSet.from_indices(3, [0, 7])
    out = iterate(state, marked, 0)
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_three_qubits_two_steps_frozen():
    # n=3, m=1, k=2: sin^2(5 asin(sqrt(1/8))) = 0.94531...
    marked = MarkedSet.from_indices(3, [5])
    prob = measured_success_probability(marked, 2)
    assert prob == pytest.approx(0.9453125, abs=1e-9)
    assert success_probability(1, 8, 2) == pytest.approx(0.9453125, abs=1e-12)


def test_success_probability_examples():
    assert success_probability(1, 4, 0) == pytest.approx(0.25, abs=1e-15)
    assert success_probability(0, 16, 3) == 0.0
    assert success_probability(16, 16, 0) == pytest.approx(1.0, abs=1e-15)
    # N=512, m=1: k_opt=17 pushes past 0.99
    assert success_probability(1, 512, 17) > 0.99


def test_success_probability_validation():
    with pytest.raises(ValueError, match="num_marked"):
        success_probability(5, 4, 1)
    with pytest.raises(ValueError, match="size"):
        success_probability(0, 0, 1)
    with pytest.raises(ValueError, match="iterations"):
        success_probability(1, 4, -1)


@pytest.mark.parametrize("num_marked", [1, 2, 64, 128])
@pytest.mark.parametrize("num_qubits", [6, 8, 9, 10])
def test_measured_matches_formula(num_qubits, num_marked):
    size = 1 << num_qubits
    if num_marked > size:
        pytest.skip("set larger than register")
    rng = np.random.default_rng(num_qubits * 1000 + num_marked)
    indices = rng.choice(size, size=num_marked, replace=False)
    marked = MarkedSet.from_indices(num_qubits, indices)
    for k in (0, 1, 5, 17, 30):
        measured = measured_success_probability(marked, k)
        predicted = success_probability(num_marked, size, k)
        assert measured == pytest.approx(predicted, abs=1e-9)


def test_iterate_composes_exactly():
    # k steps at once equals k single steps
    marked = MarkedSet.from_indices(5, [3, 17, 30])
    state = uniform_superposition(5)
    once = iterate(state, marked, 6)
    stepped = state
    for _ in range(6):
        stepped = iterate(stepped, marked, 1)
    np.testing.assert_allclose(once.amplitudes, stepped.amplitudes, atol=1e-13)


def test_all_marked_flips_sign_only():
    # m=N: G maps the uniform state to minus itself, probabilities unchanged
    n = 4
    marked = MarkedSet(n, np.ones(1 << n, dtype=bool))
    state = uniform_superposition(n)
    out = iterate(state, marked, 1)
    np.testing.assert_allclose(out.amplitudes, -state.amplitudes, atol=1e-13)
    assert marked_probability(out, marked) == pytest.approx(1.0, abs=1e-12)


def test_optimal_iterations_cases():
    assert optimal_iterations(1, 4) == 1
    assert optimal_iterations(1, 512) == 17
    assert optimal_iterations(1, 1024) == 25
    assert optimal_iterations(154, 1024) == 1
    assert optimal_iterations(4, 4) == 0  # m=N, already certain
    assert optimal_iterations(3, 4) == 0  # m > N/2 rounds to zero


def test_optimal_iterations_validation():
    with pytest.raises(ValueError, match="num_marked"):
        optimal_iterations(0, 8)
    with pytest.raises(ValueError, match="num_marked"):
        optimal_iterations(9, 8)
    with pytest.raises(ValueError, match="size"):
        optimal_iterations(1, 0)


def test_optimal_is_argmax_over_neighbors():
    for num_marked, size in [(1, 64), (3, 256), (10, 1024), (100, 1024)]:
        k = optimal_iterations(num_marked, size)
        best = success_probability(num_marked, size, k)
        for other in (k - 1, k + 1):
            if other >= 0:
                assert best >= success_probability(num_marked, size, other) - 1e-12


def test_iterate_validation():
    state = uniform_superposition(3)
    with pytest.raises(ValueError, match="iterations"):
        iterate(state, MarkedSet.empty(3), -1)
    with pytest.raises(ValueError, match="does not match"):
        iterate(state, MarkedSet.empty(2), 1)


def test_amplify_empty_set_defaults_to_zero_steps():
    state, k = amplify(MarkedSet.empty(3))
    assert k == 0
    np.testing.assert_allclose(state.amplitudes, np.full(8, 1 / np.sqrt(8)), atol=1e-15)


def test_amplify_reports_requested_iterations():
    marked = MarkedSet.from_indices(4, [2])
    _, k = amplify(marked, iterations=3)
    assert k == 3


@given(
    num_qubits=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=30, deadline=None)
def test_marked_probability_matches_theory(num_qubits, seed, k):
    size = 1 << num_qubits
    rng = np.random.default_rng(seed)
    num_marked = int(rng.integers(1, size + 1))
    indices = rng.choice(size, size=num_marked, replace=False)
    marked = MarkedSet.from_indices(num_qubits, indices)
    state, _ = amplify(marked, iterations=k)
    assert marked_probability(state, marked) == pytest.approx(
        success_probability(num_marked, size, k), abs=1e-9
    )
    assert abs(state.norm_squared() - 1.0) < 1e-12


def test_success_oscillates_with_period():
    # past the optimum the probability comes back down
    size, m = 1024, 1
    k_opt = optimal_iterations(m, size)
    theta = math.asin(math.sqrt(m / size))
    k_bad = round(math.pi / (2 * theta))  # full rotation, near the start
    assert success_probability(m, size, k_opt) > 0.99
    assert success_probability(m, size, k_bad) < 0.1


def test_class_probabilities_sum_to_one():
    for size in range(2, 1025):
        for m in sorted({0, 1, 2, size // 4, size // 2, size - 1, size}):
            assert class_probabilities(m, size, 0) == (1 / size, 1 / size)
            for k in range(1, 6):
                a, b = class_probabilities(m, size, k)
                assert a >= 0 and b >= 0
                assert abs(m * a + (size - m) * b - 1.0) < 1e-12


def _marked_grid(num_qubits, seed):
    """Marked sets of 0, 1, a few, N/2, N-1 and N cells at seeded positions."""
    size = 1 << num_qubits
    order = np.random.default_rng(seed).permutation(size)
    for count in sorted({0, 1, min(3, size), size // 2, size - 1, size}):
        mask = np.zeros(size, dtype=bool)
        mask[order[:count]] = True
        yield MarkedSet(num_qubits, mask)


@pytest.mark.parametrize("num_qubits", range(1, 11))
def test_sample_draws_what_the_dense_register_draws(num_qubits):
    # Fixed seeds, not a property search: the indices agree exactly only away
    # from float ties between the two CDFs, which these draws never meet.
    size = 1 << num_qubits
    for seed in range(4):
        for marked in _marked_grid(num_qubits, seed):
            for k in range(9):
                rng_a = np.random.default_rng([seed, k])
                rng_b = np.random.default_rng([seed, k])
                for _ in range(3):
                    probs = iterate(uniform_superposition(num_qubits), marked, k).probabilities()
                    assert sample(marked.indices(), size, k, rng_a) == rng_b.choice(size, p=probs)
                assert rng_a.random() == rng_b.random()


class _FixedUniform:
    """Stands in for a Generator whose ``random()`` returns ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sample_inverts_the_cdf_at_its_steps():
    # Uniforms on and beside every step of the CDF, where rounding decides the
    # cell: the draw must be a cell whose CDF interval holds the uniform.
    n, m, k = 9, 199, 3  # P = 1 - 2.4e-7, so each unmarked cell carries 7.5e-10
    size = 1 << n
    mask = np.zeros(size, dtype=bool)
    mask[np.random.default_rng(0).permutation(size)[:m]] = True
    marked = MarkedSet(n, mask)
    p = success_probability(m, size, k)
    cdf = np.cumsum(np.where(mask, p / m, (1 - p) / (size - m)))
    lower = np.concatenate(([0.0], cdf[:-1]))
    for step in cdf[:-1]:
        for u in (np.nextafter(step, 0), step, np.nextafter(step, 1)):
            i = sample(marked.indices(), size, k, _FixedUniform(u))
            assert lower[i] - 1e-12 <= u <= cdf[i] + 1e-12


def test_sample_follows_born_rule():
    # one amplified round on 3 qubits, then chi-square against |a_i|^2
    marked = MarkedSet.from_indices(3, [5])
    probs = iterate(uniform_superposition(3), marked, 1).probabilities()
    rng = np.random.default_rng(2024)
    draws = 100_000
    counts = np.zeros(8)
    for _ in range(draws):
        counts[sample(marked.indices(), 8, 1, rng)] += 1
    assert stats.chisquare(counts, probs * draws).pvalue > 0.001


def test_sample_validation():
    with pytest.raises(ValueError, match="iterations"):
        sample(MarkedSet.empty(3).indices(), 8, -1, np.random.default_rng(0))
