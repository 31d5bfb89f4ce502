"""The dense register: preparation, the amplification step and its matrices."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grovermin.encoding import MAX_QUBITS, RegisterTooLarge
from grovermin.statevector import (
    MAX_DENSE_QUBITS,
    MarkedSet,
    Statevector,
    dense_reference_operators,
    iterate,
    marked_probability,
    uniform_superposition,
)


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    amps /= np.linalg.norm(amps)
    return Statevector(amps)


def test_uniform_two_qubits_exact():
    state = uniform_superposition(2)
    np.testing.assert_array_equal(state.amplitudes, np.full(4, 0.5))
    assert state.num_qubits == 2
    assert state.size == 4


def test_uniform_one_qubit():
    state = uniform_superposition(1)
    np.testing.assert_allclose(state.amplitudes, [1 / np.sqrt(2)] * 2, atol=1e-15)


@pytest.mark.parametrize("n", [0, -1])
def test_uniform_rejects_bad_qubit_count(n):
    with pytest.raises(ValueError, match="num_qubits"):
        uniform_superposition(n)


def test_uniform_refuses_qubits_past_the_cap():
    with pytest.raises(RegisterTooLarge, match=f"exceeds the register cap of {MAX_QUBITS}"):
        uniform_superposition(MAX_QUBITS + 1)


def test_phase_flip_two_qubits_single_mark():
    state = uniform_superposition(2)
    marked = MarkedSet.from_indices(2, [3])
    _, p_t = dense_reference_operators(2, marked)
    flipped = p_t @ state.amplitudes
    np.testing.assert_array_equal(flipped, [0.5, 0.5, 0.5, -0.5])
    # input untouched
    np.testing.assert_array_equal(state.amplitudes, np.full(4, 0.5))


def test_two_qubit_one_step_is_exact():
    # n=2, m=1: a single flip+diffusion concentrates all probability.
    state = uniform_superposition(2)
    marked = MarkedSet.from_indices(2, [2])
    after = iterate(state, marked, 1)
    np.testing.assert_allclose(after.amplitudes, [0, 0, 1, 0], atol=1e-12)
    assert marked_probability(after, marked) == pytest.approx(1.0, abs=1e-12)


def test_diffusion_formula_small_vector():
    amps = np.array([0.5, 0.5, 0.5, -0.5])
    p_s, _ = dense_reference_operators(2, MarkedSet.from_indices(2, []))
    np.testing.assert_allclose(p_s @ amps, 2 * amps.mean() - amps, atol=1e-15)


def test_dense_operator_matrices_two_qubits():
    marked = MarkedSet.from_indices(2, [1, 3])
    p_s, p_t = dense_reference_operators(2, marked)
    np.testing.assert_array_equal(p_s, np.full((4, 4), 0.5) - np.eye(4))
    np.testing.assert_array_equal(p_t, np.diag([1.0, -1.0, 1.0, -1.0]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dense_operators_match_fast_path(n):
    rng = np.random.default_rng(100 + n)
    size = 1 << n
    indices = rng.choice(size, size=max(1, size // 4), replace=False)
    marked = MarkedSet.from_indices(n, indices)
    p_s, p_t = dense_reference_operators(n, marked)
    state = uniform_superposition(n)
    fast = iterate(state, marked, 1)
    dense = p_s @ p_t @ state.amplitudes
    np.testing.assert_allclose(fast.amplitudes, dense, atol=1e-10)


def test_dense_operators_reject_large_register():
    marked = MarkedSet.from_indices(MAX_DENSE_QUBITS + 1, [])
    with pytest.raises(ValueError, match="dense operators"):
        dense_reference_operators(MAX_DENSE_QUBITS + 1, marked)


def test_dense_operators_reject_mismatched_marked_set():
    with pytest.raises(ValueError, match="does not match"):
        dense_reference_operators(3, MarkedSet.from_indices(2, []))


def test_phase_flip_is_involution():
    _, p_t = dense_reference_operators(4, MarkedSet.from_indices(4, [0, 5, 9]))
    np.testing.assert_allclose(p_t @ p_t, np.eye(16), atol=1e-15)


def test_diffusion_is_involution():
    p_s, _ = dense_reference_operators(4, MarkedSet.from_indices(4, []))
    np.testing.assert_allclose(p_s @ p_s, np.eye(16), atol=1e-12)


@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_primitives_preserve_norm(n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(n, seed)
    indices = [i for i in range(1 << n) if rng.random() < 0.5]
    marked = MarkedSet.from_indices(n, indices)
    out = iterate(state, marked, 1)
    assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) < 1e-12


def test_norm_stable_over_many_rounds():
    state = uniform_superposition(6)
    marked = MarkedSet.from_indices(6, [11, 40, 63])
    for _ in range(200):
        state = iterate(state, marked, 1)
    assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12


def test_statevector_rejects_non_1d():
    with pytest.raises(ValueError, match="one-dimensional"):
        Statevector(np.full((2, 2), 0.5))


@pytest.mark.parametrize("size", [1, 3, 6])
def test_statevector_rejects_non_power_of_two(size):
    amps = np.full(size, 1.0 / np.sqrt(size))
    with pytest.raises(ValueError, match="power of two"):
        Statevector(amps)


def test_statevector_rejects_non_finite():
    amps = np.array([np.nan, 0.0])
    with pytest.raises(FloatingPointError, match="non-finite"):
        Statevector(amps)


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        Statevector(np.array([1.0, 1.0]))


def test_copy_is_independent():
    # iterate steps a copy of the register, even with no steps
    state = uniform_superposition(2)
    dup = iterate(state, MarkedSet.from_indices(2, []), 0)
    dup.amplitudes[0] = 0.0
    assert state.amplitudes[0] == 0.5


def test_probabilities_sum_to_one():
    state = random_state(5, seed=3)
    assert state.probabilities().sum() == pytest.approx(1.0, abs=1e-12)


def test_marked_set_basics():
    marked = MarkedSet.from_indices(3, [6, 1, 6])
    assert marked.count == 2
    assert list(marked.indices()) == [1, 6]
    assert marked.mask[6]
    assert not marked.mask[0]
    assert MarkedSet.from_indices(3, []).count == 0


def test_marked_set_from_mask():
    marked = MarkedSet(3, np.arange(8) % 2 == 0)
    assert marked.count == 4
    assert list(marked.indices()) == [0, 2, 4, 6]


def test_marked_set_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="out of range"):
        MarkedSet.from_indices(2, [4])
    with pytest.raises(ValueError, match="out of range"):
        MarkedSet.from_indices(2, [-1])


def test_marked_set_from_indices_refuses_qubits_past_the_cap():
    tracemalloc.start()
    try:
        with pytest.raises(RegisterTooLarge, match=f"exceeds the register cap of {MAX_QUBITS}"):
            MarkedSet.from_indices(MAX_QUBITS + 1, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_marked_set_rejects_wrong_mask_length():
    with pytest.raises(ValueError, match="does not match"):
        MarkedSet(3, np.zeros(4, dtype=bool))


def test_marked_probability_requires_matching_register():
    with pytest.raises(ValueError, match="marked set is over"):
        marked_probability(uniform_superposition(3), MarkedSet.from_indices(2, []))
