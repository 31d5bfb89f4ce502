"""Hybrid search: classical pivot resampling, with Grover as the selection cost.

One generation: take the lowest-value fraction of the probe population as
pivots (the classical quantile set), weight the pivots by a Boltzmann
factor, then rebuild the population by Gaussian resampling around weighted
pivots with a per-coordinate width that contracts every generation.  The
quantum part is the price of choosing the pivots: the expected Grover
iterations to draw them from one amplified register over the N = 2^qubits
probe indices, in closed form from the register's two class probabilities,
so no register is built and no rng call is spent on it.  The incremental
cluster-growth driver sits on top: it freezes each found atom and re-runs
the hybrid for the next one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .encoding import _is_int, check_qubits
from .grover import class_probabilities, optimal_iterations
from .objectives import (
    LJ_TRIMER,
    Box,
    ClusterGeometry,
    Objective,
    build_fixed_core,
    check_bond,
    check_box,
    free_atom_objective,
)

# Selection builds no register; perfbench/spans.py wraps these bindings, so they
# stay until the benchmark is retargeted (ROADMAP item 1).
from .statevector import MarkedSet, iterate, uniform_superposition  # noqa: F401

#: Search window for the shared-bond trimer stage of cluster growth.
TRIMER_BOX: Box = [(0.0001, 2.0), (0.0001, math.pi)]

#: Free-atom (X, Y, Z) window for growth stages 4 and 5.  Method 2 pins X and
#: searches the (Y, Z) axes; a mirrored fifth stage reflects Z below the plane.
GROWTH_BOX: Box = [(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)]


@dataclass
class ProbeSet:
    """Population of candidate points with their objective values."""

    points: np.ndarray  # (N, d)
    values: np.ndarray  # (N,)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.points.ndim != 2 or self.values.shape != (self.points.shape[0],):
            raise ValueError("points must be (N, d) with one value per point")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class PivotState:
    """Selected pivots plus selection cost accounting for one generation."""

    points: np.ndarray  # (m, d)
    values: np.ndarray  # (m,)
    threshold: float
    optimal_k: int
    grover_iterations: float  # optimal_k per expected draw, rejected draws included
    rejected_draws: float  # expected unmarked draws before the quota is filled

    @property
    def num_pivots(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PivotConfig:
    fraction: float = 0.15
    kT: float = 50.0
    # Initial Gaussian width is (hi - lo) / sigma_scale per coordinate.
    sigma_scale: float = 8.0
    sigma_decay: float = 0.9
    sigma_floor: float = 1e-4
    stall_generations: int = 20
    stall_tol: float = 0.0
    max_generations: int = 200
    elitism: bool = True

    def __post_init__(self):
        if not 0 < self.fraction < 1:
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")
        if self.kT <= 0:
            raise ValueError(f"kT must be positive, got {self.kT}")
        if self.sigma_scale <= 0 or self.sigma_decay <= 0 or self.sigma_decay >= 1:
            raise ValueError("sigma_scale must be > 0 and sigma_decay in (0, 1)")
        for name in ("stall_generations", "max_generations"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.stall_generations < 1 or self.max_generations < 1:
            raise ValueError("stall_generations and max_generations must be >= 1")
        for name in ("kT", "sigma_scale", "sigma_decay", "sigma_floor", "stall_tol"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        for name in ("sigma_scale", "sigma_floor"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("sigma_floor", "stall_tol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def generate_probes(
    box: Box, n: int, rng: np.random.Generator, objective: Objective
) -> ProbeSet:
    """N points drawn independently and uniformly from the box."""
    box = check_box(box, objective.arity)
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need at least 2 probes, got {n}")
    check_qubits(int(n - 1).bit_length())
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    points = rng.uniform(lo, hi, size=(n, len(box)))
    return ProbeSet(points, objective.batch(points))


#: Entries of the ``selection_cost`` memo.  Without ties every generation of
#: a search has the same key, so a few entries answer nearly every call.
SELECTION_MEMO_SIZE = 32


@functools.lru_cache(maxsize=SELECTION_MEMO_SIZE, typed=True)
def selection_cost(num_marked: int, size: int, quota: int) -> tuple[int, float]:
    """``(k, rejected)`` for drawing ``quota`` of ``num_marked`` cells from one register.

    k is the optimal step count for m = ``num_marked`` of N = ``size``
    cells and ``rejected`` the expected unmarked draws before the quota-th
    marked one (see ``select_pivots``).  It is pure, so it is kept in a
    bounded memo.
    """
    k = optimal_iterations(num_marked, size)
    a, b = class_probabilities(num_marked, size, k)
    rates = a * np.arange(num_marked, num_marked - quota, -1, dtype=float)
    return k, (size - num_marked) * (1.0 - float(np.prod(rates / (rates + b))))


def select_pivots(
    probes: ProbeSet,
    fraction: float = PivotConfig.fraction,
    rng: np.random.Generator | None = None,
) -> PivotState:
    """Take the lowest-``fraction`` probes as pivots; Grover prices the choice.

    The value threshold is the ceil(fraction*N)-th smallest probe value and
    the pivots are the quota = ceil(fraction*N) probes at or below it, in
    index order.  Only ties at the threshold mark m > quota probes; then a
    uniform quota-subset of them is drawn with ``rng``, and otherwise no rng
    call is made.  N must be a power of two (it is 2^qubits in every run).

    The cost is that of drawing the quota without replacement from one
    amplified register over the N probe indices, in which each of the m
    marked probes holds a and each other probe b, with
    ``(a, b) = class_probabilities(m, N, k)`` at the optimal k.  Draws are
    exponential clocks (rate a per marked probe, b per other one), and an
    unmarked probe is drawn, and rejected, before the quota-th marked
    arrival with probability 1 - prod_{i<quota} a(m-i) / (a(m-i) + b).  So
    ``rejected_draws`` is the exact expectation (N - m) times that, and
    ``grover_iterations`` is k per expected draw; ``selection_cost`` gives
    k and that expectation.
    """
    if rng is None:
        raise ValueError("an rng is required")
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(probes)
    if n < 2 or n & (n - 1):
        raise ValueError(f"probe count must be a power of two >= 2, got {n}")
    quota = math.ceil(fraction * n)
    threshold = float(np.partition(probes.values, quota - 1)[quota - 1])
    marked = (probes.values <= threshold).nonzero()[0]
    m = len(marked)
    chosen = marked if m == quota else rng.choice(marked, size=quota, replace=False)
    k, rejected = selection_cost(m, n, quota)
    return PivotState(
        points=probes.points.take(chosen, axis=0),
        values=probes.values.take(chosen),
        threshold=threshold,
        optimal_k=k,
        grover_iterations=k * (quota + rejected),
        rejected_draws=rejected,
    )


def boltzmann_weights(values: np.ndarray, kT: float = PivotConfig.kT) -> np.ndarray:
    """Normalized weights proportional to exp(-f/kT), shifted by the least value.

    ValueError if there are no values or the least one is not finite (an
    infinite or NaN least value leaves no weight to normalize).  Computed in
    place in one array: (f - min) / -kT is bitwise -(f - min) / kT.
    """
    if kT <= 0:
        raise ValueError(f"kT must be positive, got {kT}")
    values = np.asarray(values, dtype=float)
    if not values.size:
        raise ValueError("boltzmann_weights needs at least one value")
    least = values.min()
    if not math.isfinite(least):
        raise ValueError(f"boltzmann_weights needs a finite least value, got {least}")
    w = values - least
    w /= -kT
    np.exp(w, out=w)
    w /= w.sum()
    return w


#: Cells of the guide table that starts each inverse-CDF draw.  A power of
#: two, so u * _GUIDE_CELLS and cdf * _GUIDE_CELLS are exact.
_GUIDE_CELLS = 1024

#: How far the weights' sum may stray from 1.  numpy's pairwise sum of a
#: few thousand weights is within about 1e-14 of the exact one.
_WEIGHT_TOL = math.sqrt(np.finfo(float).eps)


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(np.arange(K) / K, side="right")``, K = ``_GUIDE_CELLS``, from counts.

    cdf*K is exact, so an entry is <= c/K exactly when ceil(cdf*K) <= c:
    guide[c] is the number of entries whose ceil(cdf*K) is at most c.
    """
    cells = np.ceil(cdf * _GUIDE_CELLS).astype(np.intp)
    return np.bincount(cells, minlength=_GUIDE_CELLS + 1)[:_GUIDE_CELLS].cumsum()


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")``, with the same indices.

    ``cdf`` is non-decreasing and ends at exactly 1, and every u is in
    [0, 1).  A binary search over random keys mispredicts nearly every
    branch, so each key starts from a guide table instead: guide[c] counts
    the cdf entries <= c/K (K = ``_GUIDE_CELLS``), so for a u in cell c = floor(u*K) it never
    passes the answer and every entry before it is <= u.  One step then
    resolves each cell that holds at most one cdf entry, and the few keys
    still short of their answer go to ``searchsorted``.
    """
    j = _guide_table(cdf)[(u * _GUIDE_CELLS).astype(np.intp)]
    j += cdf[j] <= u
    left = (cdf[j] <= u).nonzero()[0]
    if len(left):
        j[left] = cdf.searchsorted(u[left], side="right")
    return j


def resample(
    state: PivotState,
    weights: np.ndarray,
    sigma: np.ndarray,
    n: int,
    box: Box,
    rng: np.random.Generator,
    objective: Objective,
    elitism: bool = PivotConfig.elitism,
) -> ProbeSet:
    """New population: pivots (under elitism) plus Gaussian offspring.

    Each offspring picks a base pivot with its Boltzmann weight from
    ``weights`` and adds a per-coordinate normal offset of width ``sigma``
    (one width, or one per coordinate), clamped into the box.  The
    population is written in place into arrays allocated once: pivots
    first, then offspring.
    """
    box = check_box(box, objective.arity)
    m = state.num_pivots
    num_children = n - m if elitism else n
    if num_children < 0:
        raise ValueError(f"population {n} smaller than pivot count {m}")
    check_qubits(int(n - 1).bit_length())
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (m,):
        raise ValueError(f"weights must have shape ({m},), got {weights.shape}")
    if not weights.min(initial=0.0) >= 0:  # NaN fails too; an empty array fails the sum check
        raise ValueError("weights must be non-negative and not NaN")
    total = float(weights.sum())
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    d = len(box)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape not in ((), (d,)):
        raise ValueError(f"sigma must be a number or have shape ({d},), got {sigma.shape}")
    widths = sigma.tolist() if sigma.ndim else [sigma.item()] * d
    if not all(0.0 <= s < math.inf for s in widths):
        raise ValueError(f"sigma must be finite and non-negative, got {sigma.tolist()}")
    # The inverse-CDF draw of rng.choice(m, num_children, p=weights), from the
    # same uniforms, without its per-call overhead.
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    base = _inverse_cdf(cdf, rng.random(num_children))
    offsets = rng.normal(0.0, 1.0, size=(num_children, d))
    points, values = np.empty((n, d)), np.empty(n)
    children = points[n - num_children :]
    if elitism:
        points[:m], values[:m] = state.points, state.values
    # Every base is in range; mode="clip" skips take's buffered bounds check.
    np.asarray(state.points, dtype=float).take(base, axis=0, out=children, mode="clip")
    # One column at a time: a scalar per call is cheaper than broadcasting
    # a d-vector over a short trailing axis, and the floats are the same.
    for j, (lo, hi) in enumerate(box):
        child, offset = children[:, j], offsets[:, j]
        offset *= widths[j]
        child += offset
        np.maximum(child, lo, out=child)
        np.minimum(child, hi, out=child)
    values[n - num_children :] = objective.batch(children)
    return ProbeSet(points, values)


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    num_pivots: int
    sigma: tuple[float, ...]
    threshold: float
    optimal_k: int
    grover_iterations: float
    rejected_draws: float
    best_value: float


@dataclass
class PivotSearchResult:
    best_value: float
    best_point: tuple[float, ...]
    generations: list[GenerationRecord]
    total_iterations: float
    converged: bool

    @property
    def num_generations(self) -> int:
        return len(self.generations)


def pivot_grover_search(
    objective: Objective,
    box: Box,
    qubits: int,
    config: PivotConfig,
    rng: np.random.Generator,
) -> PivotSearchResult:
    """Full hybrid loop: probe, select, weight, resample, until stalled.

    Convergence means the best value failed to improve by more than
    ``stall_tol`` (default 0: unchanged) for ``stall_generations``
    consecutive generations; hitting ``max_generations`` instead reports
    converged=False.
    """
    box = check_box(box, objective.arity)
    if not (_is_int(qubits) and qubits >= 1):
        raise ValueError(f"qubits must be an integer >= 1, got {qubits!r}")
    check_qubits(qubits)
    sigma = np.array([(hi - lo) / config.sigma_scale for lo, hi in box])
    if not np.isfinite(sigma).all():
        raise ValueError(f"initial sigma (hi - lo) / sigma_scale overflows, got {sigma.tolist()}")
    n = 1 << qubits
    probes = generate_probes(box, n, rng, objective)
    i = int(probes.values.argmin())
    best_value = float(probes.values[i])
    best_point = probes.points[i].copy()

    records: list[GenerationRecord] = []
    total_iterations = 0
    stall = 0
    converged = False
    for generation in range(1, config.max_generations + 1):
        state = select_pivots(probes, config.fraction, rng)
        total_iterations += state.grover_iterations
        weights = boltzmann_weights(state.values, config.kT)
        probes = resample(state, weights, sigma, n, box, rng, objective, elitism=config.elitism)
        i = int(probes.values.argmin())
        if best_value - probes.values[i] > config.stall_tol:
            stall = 0
        else:
            stall += 1
        if probes.values[i] < best_value:
            best_value = float(probes.values[i])
            best_point = probes.points[i].copy()

        records.append(
            GenerationRecord(
                generation=generation,
                num_pivots=state.num_pivots,
                sigma=tuple(sigma.tolist()),
                threshold=state.threshold,
                optimal_k=state.optimal_k,
                grover_iterations=state.grover_iterations,
                rejected_draws=state.rejected_draws,
                best_value=best_value,
            )
        )
        if stall >= config.stall_generations:
            converged = True
            break
        sigma = np.maximum(sigma * config.sigma_decay, config.sigma_floor)

    return PivotSearchResult(
        best_value=best_value,
        best_point=tuple(float(x) for x in best_point),
        generations=records,
        total_iterations=total_iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class GrowthConfig:
    method: int = 2
    qubits_per_axis: int = 5
    # Triangle side for the frozen core; None runs the shared-bond trimer
    # hybrid first and freezes an equilateral triangle at the bond it finds.
    bond: float | None = None
    trimer_qubits: int = 10
    # Stage-5 box: reflect the Z window below the triangle plane, where the
    # second face-capping site lives.
    mirror_fifth: bool = True
    pivot: PivotConfig = field(default_factory=PivotConfig)

    def __post_init__(self):
        for name in ("method", "qubits_per_axis", "trimer_qubits"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.method not in (1, 2):
            raise ValueError(f"method must be 1 or 2, got {self.method}")
        for name, least in (("qubits_per_axis", 1), ("trimer_qubits", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.bond is not None:
            check_bond(self.bond)
        # Refuse an over-cap stage register now, not after the trimer search.
        check_qubits(self.trimer_qubits)
        if self.method == 2:
            check_qubits(2 * self.qubits_per_axis)


@dataclass
class GrowthStage:
    num_atoms: int
    positions: np.ndarray  # (num_atoms, 3) frozen cluster after this stage
    energy: float  # total pair energy of the frozen cluster
    box: Box | None
    search: PivotSearchResult | None


@dataclass
class GrowthResult:
    stages: list[GrowthStage]
    final_positions: np.ndarray
    final_energy: float
    total_iterations: float


def lj_growth(
    target_atoms: int, config: GrowthConfig, rng: np.random.Generator
) -> GrowthResult:
    """Grow a cluster one atom at a time, freezing each found position.

    Stage 3 finds the shared bond of the equilateral seed (or takes it from
    config); stages 4 and 5 search one free atom around the frozen core in
    ``GROWTH_BOX``.  Method 2 pins the free atom's X at 0 and searches Y, Z on
    qubits_per_axis qubits each; method 1 frees X, Y, Z on a 10-qubit probe
    register, since a continuous pivot search does not split qubits by axis.
    """
    if not (_is_int(target_atoms) and target_atoms in (4, 5)):
        raise ValueError(f"target_atoms must be 4 or 5, got {target_atoms!r}")
    stages: list[GrowthStage] = []
    total_iterations = 0

    if config.bond is None:
        trimer = pivot_grover_search(
            LJ_TRIMER, TRIMER_BOX, config.trimer_qubits, config.pivot, rng
        )
        bond = float(trimer.best_point[0])
        total_iterations += trimer.total_iterations
    else:
        trimer = None
        bond = float(config.bond)
    core = build_fixed_core(3, bond)
    stages.append(
        GrowthStage(
            num_atoms=3,
            positions=core.fixed_atoms.copy(),
            energy=core.fixed_energy,
            box=list(TRIMER_BOX) if trimer is not None else None,
            search=trimer,
        )
    )

    # Method 2 pins X at 0 and searches GROWTH_BOX without its X axis; the
    # pinned coordinates lead each new atom's position.
    pinned = (0.0,) if config.method == 2 else ()
    qubits = 2 * config.qubits_per_axis if pinned else 10
    positions = core.fixed_atoms
    for num_atoms in range(4, target_atoms + 1):
        box = GROWTH_BOX[len(pinned) :]
        if num_atoms == 5 and config.mirror_fifth:
            lo, hi = box[-1]
            box = [*box[:-1], (-hi, -lo)]
        objective = free_atom_objective(ClusterGeometry(positions), *pinned)
        search = pivot_grover_search(objective, box, qubits, config.pivot, rng)
        total_iterations += search.total_iterations
        positions = np.vstack([positions, [*pinned, *search.best_point]])
        stages.append(
            GrowthStage(
                num_atoms=num_atoms,
                positions=positions.copy(),
                energy=ClusterGeometry(positions).fixed_energy,
                box=box,
                search=search,
            )
        )

    return GrowthResult(
        stages=stages,
        final_positions=positions.copy(),
        final_energy=stages[-1].energy,
        total_iterations=total_iterations,
    )
