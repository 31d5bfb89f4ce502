"""Dense complex-amplitude register, the oracle the closed forms are checked against.

The register state is the full vector of 2**n amplitudes, with uniform
preparation and the amplification step G = P_s P_t (``iterate``: selective
phase inversion of a marked index set, then inversion about the average
amplitude), plus the explicit matrices of P_s and P_t for small registers.
No run path but the appendix demo builds it: the threshold search, pivot
selection and the per-round distributions all take the two class
probabilities in closed form (``grover``).  The dense register serves the
appendix demo and the tests, and it takes its register cap from ``encoding``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .encoding import check_qubits

#: Constructor tolerance on the squared norm.
NORM_TOL = 1e-8

#: Cap for dense reference operators (test-scale only).
MAX_DENSE_QUBITS = 6


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
        check_qubits(num_qubits)
        mask = np.zeros(1 << num_qubits, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= mask.shape[0]:
                raise ValueError("marked index out of range")
            mask[idx] = True
        return cls(num_qubits, mask)

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

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


def iterate(state: Statevector, marked: MarkedSet, iterations: int) -> Statevector:
    """Apply ``iterations`` amplification steps G = P_s P_t to a copy of ``state``."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    _check_compatible(state, marked)
    amps = state.amplitudes.copy()
    mask = marked.mask
    # In-place loop: flip marked signs, then a -> 2*mean(a) - a.
    for _ in range(iterations):
        amps[mask] = -amps[mask]
        mean = amps.mean()
        np.subtract(2.0 * mean, amps, out=amps)
    return Statevector(amps)


def marked_probability(state: Statevector, marked: MarkedSet) -> float:
    """Total Born-rule probability carried by the marked indices."""
    _check_compatible(state, marked)
    return float(np.sum(np.abs(state.amplitudes[marked.mask]) ** 2))


def dense_reference_operators(num_qubits: int, marked: MarkedSet) -> tuple[np.ndarray, np.ndarray]:
    """Explicit matrices of the two reflections in G = P_s P_t, for cross-checking only.

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
