"""Amplitude amplification in closed form: the search engine.

One amplification step is G = P_s P_t (phase inversion of the marked set,
then inversion about the average).  With m marked indices out of N = 2**n
and theta = asin(sqrt(m/N)), k steps applied to the uniform state leave the
marked subspace with probability sin^2((2k+1) theta); the best integer step
count is round(pi/(4 theta) - 1/2).

Because a register that starts uniform only ever holds two distinct
amplitudes, one per class, ``class_probabilities`` is the one model of a
round on every run path: ``sample`` draws from it in closed form, pivot
selection takes its expected cost from it (the pivots themselves are the
classical quantile set), and the per-round distribution CSVs read it.
It is pure, so it is computed once per (m, N, k) while its bounded memo
holds the key, and all three readers share that memo.  Nothing here builds
or imports a register: the dense one in ``statevector`` is only the oracle
these formulas are tested against, and the register cap is the grid
module's (``encoding.check_qubits``).
"""

from __future__ import annotations

import functools
import math

import numpy as np


def sample(marked: np.ndarray, size: int, iterations: int, u: float) -> int:
    """Measure the register ``statevector.iterate`` would build, without building it.

    The register is ``iterate(uniform_superposition(n), marked, iterations)``;
    ``marked`` holds the sorted, distinct marked indices of a register of
    ``size`` cells.  Each of the m marked cells carries a and each unmarked
    cell b, ``(a, b) = class_probabilities(m, N, k)``.  The uniform ``u``
    (the caller's ``rng.random()``) is inverted on the index-order CDF
    b*(i + 1) + (a - b)*#(marked <= i), the way ``rng.choice(N, p=probs)``
    inverts one uniform on the cumulative sum of the dense probabilities, so
    both draw the same index from the same stream (the indices can differ
    only when the uniform lies within rounding of a CDF step).  A bisection
    over the marked ranks finds the step in O(log m): it is a plain loop that
    computes the CDF just past each probed mark as it goes, with no function
    call per probe, and reads the marks through ``ndarray.item``, as Python
    ints, which costs less per probe than indexing a numpy scalar and gives
    the same values.  With no steps (k = 0), or with none or all of the cells
    marked (m = 0 or m = N), the state is uniform.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    m = len(marked)
    if iterations == 0 or m == 0 or m == size:
        return int(u * size)  # every cell is equally likely
    a, b = class_probabilities(m, size, iterations)
    target = u * (a * m + b * (size - m))
    item = marked.item
    # CDF just past each marked cell i, with marked[i] - i unmarked cells
    # ahead of it; j marked cells lie wholly below target.
    j, hi = 0, m
    while j < hi:
        i = (j + hi) // 2
        if target < a * (i + 1) + b * (item(i) - i):
            hi = i
        else:
            j = i + 1
    if b == 0.0:
        return item(min(j, m - 1))
    # Unmarked cells wholly below target.  Rounding in the division can put q
    # outside the run between marks j-1 and j that the search found; clamp it.
    q = max(math.floor((target - a * j) / b), item(j - 1) - (j - 1) if j else 0)
    if j < m and q >= item(j) - j:
        return item(j)
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


#: Entries of the ``class_probabilities`` memo.  A 100-run ensemble on a
#: 10-qubit grid makes about 2000 calls; 128 entries answer 60% of them from
#: the memo (1024 would answer 81%).  Its table stays under 10 KB, so the
#: rebuild a dict makes as entries come and go never costs a search round
#: anything near a byte per grid cell.
CLASS_MEMO_SIZE = 128


@functools.lru_cache(maxsize=CLASS_MEMO_SIZE, typed=True)
def class_probabilities(num_marked: int, size: int, iterations: int) -> tuple[float, float]:
    """Probability ``(a, b)`` of each marked and each unmarked cell after k steps.

    From the uniform state, a = P/m and b = (1 - P)/(N - m) with
    P = success_probability(m, N, k); with no steps, or with m = 0 or m = N,
    the register stays uniform and both are 1/N.  The function is pure, so
    its results are kept in a bounded memo shared by every caller; ``typed``
    keys a numpy integer apart from a Python one, so each caller gets the
    floats its own arguments give.
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
