"""Dense complex-amplitude register, the marked index set, and the primitives.

The register state is the full vector of 2**n amplitudes, with uniform
preparation, selective phase inversion of a marked index set, and inversion
about the average amplitude.  No run path but the appendix demo builds it:
the threshold search, pivot selection and the per-round distributions all
take the two class probabilities in closed form (``grover.sample``,
``pivot.select_pivots``, ``minsearch.round_states``).  The dense register
serves the appendix demo and the tests, where it is the oracle the closed
form is checked against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: Largest register the dense simulator accepts (16M amplitudes).
MAX_QUBITS = 24

#: Constructor tolerance on the squared norm.
NORM_TOL = 1e-8

#: Cap for dense reference operators (test-scale only).
MAX_DENSE_QUBITS = 6


class RegisterTooLarge(ValueError):
    """A register or grid past ``MAX_QUBITS``, refused before any 2**n allocation."""


def check_qubits(num_qubits: int) -> None:
    """Raise RegisterTooLarge if ``num_qubits`` exceeds ``MAX_QUBITS``."""
    if num_qubits > MAX_QUBITS:
        raise RegisterTooLarge(f"{num_qubits} qubits exceeds the register cap of {MAX_QUBITS}")


class Statevector:
    """Amplitudes of an ``num_qubits``-qubit register.

    Basis index ``i``, written in binary most-significant bit first, spells
    the qubit string ``|q_{n-1} ... q_0>``; the first (leftmost) register
    qubit is the most significant bit.  Amplitudes are stored as complex
    doubles even though every state produced here is real.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, amplitudes: Iterable[complex]):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be one-dimensional")
        size = amps.shape[0]
        if size < 2 or size & (size - 1):
            raise ValueError(f"amplitude count must be a power of two >= 2, got {size}")
        n = size.bit_length() - 1
        check_qubits(n)
        if not np.isfinite(amps).all():
            raise FloatingPointError("non-finite amplitude")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a_i|^2 = {norm_sq!r}")
        self.num_qubits = n
        self.amplitudes = amps

    @property
    def size(self) -> int:
        return self.amplitudes.shape[0]

    def probabilities(self) -> np.ndarray:
        """Born-rule probabilities |a_i|^2."""
        return np.abs(self.amplitudes) ** 2

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def copy(self) -> "Statevector":
        return Statevector(self.amplitudes.copy())

    def __repr__(self) -> str:
        return f"Statevector(num_qubits={self.num_qubits})"


class MarkedSet:
    """Subset of basis indices, held as a boolean mask with a cached count."""

    __slots__ = ("num_qubits", "mask", "count")

    def __init__(self, num_qubits: int, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (1 << num_qubits,):
            raise ValueError(
                f"mask length {mask.shape} does not match 2^{num_qubits} indices"
            )
        self.num_qubits = num_qubits
        self.mask = mask
        self.count = int(mask.sum())

    @classmethod
    def from_indices(cls, num_qubits: int, indices: Iterable[int]) -> "MarkedSet":
        mask = np.zeros(1 << num_qubits, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= mask.shape[0]:
                raise ValueError("marked index out of range")
            mask[idx] = True
        return cls(num_qubits, mask)

    @classmethod
    def empty(cls, num_qubits: int) -> "MarkedSet":
        return cls(num_qubits, np.zeros(1 << num_qubits, dtype=bool))

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, index: int) -> bool:
        return bool(self.mask[index])

    def __repr__(self) -> str:
        return f"MarkedSet(num_qubits={self.num_qubits}, count={self.count})"


def uniform_superposition(num_qubits: int) -> Statevector:
    """Equal-amplitude state over all 2**n basis indices (amplitude 2^(-n/2))."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    check_qubits(num_qubits)
    size = 1 << num_qubits
    amps = np.full(size, 1.0 / np.sqrt(size), dtype=np.complex128)
    return Statevector(amps)


def phase_flip(state: Statevector, marked: MarkedSet) -> Statevector:
    """Negate the amplitude of every marked index (selective phase inversion)."""
    _check_compatible(state, marked)
    amps = state.amplitudes.copy()
    amps[marked.mask] = -amps[marked.mask]
    return Statevector(amps)


def diffusion(state: Statevector) -> Statevector:
    """Invert every amplitude about the mean: a_i -> 2*mean - a_i."""
    amps = state.amplitudes
    new = 2.0 * amps.mean() - amps
    return Statevector(new)


def marked_probability(state: Statevector, marked: MarkedSet) -> float:
    """Total Born-rule probability carried by the marked indices."""
    _check_compatible(state, marked)
    return float(np.sum(np.abs(state.amplitudes[marked.mask]) ** 2))


def dense_reference_operators(num_qubits: int, marked: MarkedSet) -> tuple[np.ndarray, np.ndarray]:
    """Explicit matrices of the two primitives, for cross-checking only.

    Returns ``(P_s, P_t)`` where ``P_s[i, j] = 2/2^n - delta_ij`` (inversion
    about average) and ``P_t`` is the identity with -1 at marked diagonal
    entries (selective phase inversion).  Restricted to small registers; the
    fast path never builds these matrices.
    """
    if num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operators are limited to {MAX_DENSE_QUBITS} qubits, got {num_qubits}"
        )
    if marked.num_qubits != num_qubits:
        raise ValueError("marked set qubit count does not match")
    size = 1 << num_qubits
    p_s = np.full((size, size), 2.0 / size) - np.eye(size)
    p_t = np.eye(size)
    p_t[marked.mask, marked.mask] = -1.0
    return p_s, p_t


def _check_compatible(state: Statevector, marked: MarkedSet) -> None:
    if marked.num_qubits != state.num_qubits:
        raise ValueError(
            f"marked set is over {marked.num_qubits} qubits, state has {state.num_qubits}"
        )
