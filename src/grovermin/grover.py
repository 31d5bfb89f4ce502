"""Amplitude amplification: repeated phase-flip + diffusion, and its theory.

One amplification step is G = P_s P_t (phase inversion of the marked set,
then inversion about the average).  With m marked indices out of N = 2**n
and theta = asin(sqrt(m/N)), k steps applied to the uniform state leave the
marked subspace with probability sin^2((2k+1) theta); the best integer step
count is round(pi/(4 theta) - 1/2).

Because a register that starts uniform only ever holds two distinct
amplitudes, one per class, ``class_probabilities`` is the one model of a
round on every run path: ``sample`` draws from it in closed form, and pivot
selection and the per-round distribution CSVs read it; ``iterate`` builds
the dense register for the appendix demo and as their cross-check oracle.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .statevector import MarkedSet, Statevector, marked_probability, uniform_superposition


def iterate(state: Statevector, marked: MarkedSet, iterations: int) -> Statevector:
    """Apply ``iterations`` amplification steps G = P_s P_t to a copy of ``state``."""
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if marked.num_qubits != state.num_qubits:
        raise ValueError("marked set qubit count does not match state")
    amps = state.amplitudes.copy()
    mask = marked.mask
    # In-place loop: flip marked signs, then a -> 2*mean(a) - a.
    for _ in range(iterations):
        amps[mask] = -amps[mask]
        mean = amps.mean()
        np.subtract(2.0 * mean, amps, out=amps)
    return Statevector(amps)


def sample(marked: np.ndarray, size: int, iterations: int, rng: np.random.Generator) -> int:
    """Measure ``iterate(uniform_superposition(n), marked, iterations)`` without building it.

    ``marked`` holds the sorted, distinct marked indices of a register of
    ``size`` cells.  Each of the m marked cells carries a = P/m and each
    unmarked cell b = (1 - P)/(N - m), with P = success_probability(m, N, k).
    One ``rng.random()`` is inverted on the index-order CDF
    b*(i + 1) + (a - b)*#(marked <= i), the way ``rng.choice(N, p=probs)``
    inverts it on the cumulative sum of the dense probabilities, so both
    draw the same index and leave the stream in the same place (the indices
    can differ only when the uniform lies within rounding of a CDF step).
    A bisection over the marked cells finds the step in O(log m).  With no
    steps (k = 0) the state is uniform whatever ``marked`` holds.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    m = len(marked)
    u = rng.random()
    if iterations == 0 or m == 0 or m == size:
        return int(u * size)  # every cell is equally likely
    a, b = class_probabilities(m, size, iterations)
    target = u * (a * m + b * (size - m))

    def before(j):  # unmarked cells ahead of marked cell j
        return int(marked[j]) - j

    # CDF just past each marked cell; j marked cells lie wholly below target.
    j = bisect.bisect_right(range(m), target, key=lambda i: a * (i + 1) + b * before(i))
    if b == 0.0:
        return int(marked[min(j, m - 1)])
    # Unmarked cells wholly below target.  Rounding in the division can put q
    # outside the run between marks j-1 and j that the search found; clamp it.
    q = max(math.floor((target - a * j) / b), before(j - 1) if j else 0)
    if j < m and q >= before(j):
        return int(marked[j])
    return j + min(q, size - m - 1)


def success_probability(num_marked: int, size: int, iterations: int) -> float:
    """sin^2((2k+1) asin(sqrt(m/N))) for k steps from the uniform state."""
    if not 0 <= num_marked <= size:
        raise ValueError(f"num_marked must be in [0, {size}], got {num_marked}")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if num_marked == 0:
        return 0.0
    theta = math.asin(math.sqrt(num_marked / size))
    return math.sin((2 * iterations + 1) * theta) ** 2


def class_probabilities(num_marked: int, size: int, iterations: int) -> tuple[float, float]:
    """Probability ``(a, b)`` of each marked and each unmarked cell after k steps.

    From the uniform state, a = P/m and b = (1 - P)/(N - m) with
    P = success_probability(m, N, k); with no steps, or with m = 0 or m = N,
    the register stays uniform and both are 1/N.
    """
    if iterations == 0 or num_marked in (0, size):
        return 1.0 / size, 1.0 / size
    p = success_probability(num_marked, size, iterations)
    return p / num_marked, (1.0 - p) / (size - num_marked)


def optimal_iterations(num_marked: int, size: int) -> int:
    """Integer step count maximizing the success probability, never negative.

    For m > N/2 a single step already overshoots and the formula rounds to
    zero: measuring the uniform state is then at least a coin flip.
    """
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    if not 0 < num_marked <= size:
        raise ValueError(f"num_marked must be in [1, {size}], got {num_marked}")
    theta = math.asin(math.sqrt(num_marked / size))
    k = round(math.pi / (4.0 * theta) - 0.5)
    return max(0, int(k))


def amplify(marked: MarkedSet, iterations: int | None = None) -> tuple[Statevector, int]:
    """Prepare the uniform state and amplify the marked set.

    When ``iterations`` is None the optimal count is used (0 if nothing is
    marked).  Returns the amplified state and the step count actually applied.
    """
    state = uniform_superposition(marked.num_qubits)
    if iterations is None:
        if marked.count == 0:
            iterations = 0
        else:
            iterations = optimal_iterations(marked.count, state.size)
    out = iterate(state, marked, iterations)
    return out, iterations


def measured_success_probability(marked: MarkedSet, iterations: int) -> float:
    """Simulated counterpart of :func:`success_probability` (exact, no sampling)."""
    state, _ = amplify(marked, iterations)
    return marked_probability(state, marked)
