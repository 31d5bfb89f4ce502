"""Hybrid search: classical pivot resampling with amplified pivot selection.

One generation: take the lowest-value fraction of the probe population as
pivots (the cut is a classical quantile; the pivots themselves are drawn
from an amplified superposition over probe indices, so the quantum cost of
selection is accounted), weight the pivots by a Boltzmann factor, then
rebuild the population by Gaussian resampling around weighted pivots with a
per-coordinate width that contracts every generation.  The probe count N is
2^qubits, which is what ties the method's cost accounting to the register
size.  The incremental cluster-growth driver sits on top: it freezes each
found atom and re-runs the hybrid for the next one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grover import iterate, optimal_iterations
from .objectives import (
    LJ_TRIMER,
    ClusterGeometry,
    Objective,
    build_fixed_core,
    free_atom_objective,
)
from .statevector import MarkedSet, check_qubits, uniform_superposition

Box = list[tuple[float, float]]

#: Search window for the shared-bond trimer stage of cluster growth.
TRIMER_BOX: Box = [(0.0001, 2.0), (0.0001, math.pi)]

#: Free-coordinate windows for the growth stages.
GROWTH_BOX_YZ: Box = [(0.01, 1.01), (0.01, 1.01)]
GROWTH_BOX_YZ_MIRRORED: Box = [(0.01, 1.01), (-1.01, -0.01)]
GROWTH_BOX_XYZ: Box = [(-0.5, 0.5), (0.01, 1.01), (0.01, 1.01)]
GROWTH_BOX_XYZ_MIRRORED: Box = [(-0.5, 0.5), (0.01, 1.01), (-1.01, -0.01)]


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
    grover_iterations: int  # optimal_k per draw, rejected draws included
    rejected_draws: int
    weights: np.ndarray | None = None
    sigma: np.ndarray | None = None
    generation: int = 0

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
        if self.stall_generations < 1 or self.max_generations < 1:
            raise ValueError("stall_generations and max_generations must be >= 1")


def _check_box(box: Box, arity: int) -> list[tuple[float, float]]:
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != arity:
        raise ValueError(f"box has {len(box)} axes, objective takes {arity}")
    for lo, hi in box:
        if hi < lo:
            raise ValueError(f"empty box axis [{lo}, {hi}]")
    return box


def generate_probes(
    box: Box, n: int, rng: np.random.Generator, objective: Objective
) -> ProbeSet:
    """N points drawn independently and uniformly from the box."""
    box = _check_box(box, objective.arity)
    if n < 2:
        raise ValueError(f"need at least 2 probes, got {n}")
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    points = rng.uniform(lo, hi, size=(n, len(box)))
    return ProbeSet(points, objective.batch(points))


def select_pivots(
    probes: ProbeSet, fraction: float = 0.15, rng: np.random.Generator | None = None
) -> PivotState:
    """Draw the lowest-``fraction`` probes via amplified sampling.

    The value threshold is the ceil(fraction*N)-th smallest probe value.
    All probes at or below it are marked in a uniform superposition over the
    N probe indices, which is amplified with the optimal step count and then
    sampled without replacement until the quota of distinct marked indices
    is collected; draws that land on unmarked indices are rejected and
    counted.  N must be a power of two (it is 2^qubits in every run).
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
    mask = probes.values <= threshold
    m = int(mask.sum())

    num_qubits = n.bit_length() - 1
    k = optimal_iterations(m, n)
    state = iterate(uniform_superposition(num_qubits), MarkedSet(num_qubits, mask), k)
    probs = state.probabilities()

    # Keyed weighted sampling without replacement over the amplified
    # distribution: descending u^(1/p) order reproduces sequential draws,
    # with zero-probability indices never drawn.
    with np.errstate(divide="ignore"):
        keys = np.log(rng.uniform(size=n)) / np.where(probs > 0.0, probs, np.nan)
    keys = np.where(np.isnan(keys), -np.inf, keys)
    order = np.argsort(-keys, kind="stable")

    chosen: list[int] = []
    rejected = 0
    for idx in order:
        if keys[idx] == -np.inf:
            break
        if mask[idx]:
            chosen.append(int(idx))
            if len(chosen) == quota:
                break
        else:
            rejected += 1
    if len(chosen) < quota:
        # Amplification drove some marked amplitudes to exactly zero; finish
        # the quota uniformly over the remaining marked indices.
        left = [i for i in np.flatnonzero(mask) if i not in set(chosen)]
        extra = rng.choice(len(left), size=quota - len(chosen), replace=False)
        chosen.extend(int(left[i]) for i in extra)
    draws = quota + rejected
    chosen_arr = np.array(chosen, dtype=np.int64)
    return PivotState(
        points=probes.points[chosen_arr].copy(),
        values=probes.values[chosen_arr].copy(),
        threshold=threshold,
        optimal_k=k,
        grover_iterations=k * draws,
        rejected_draws=rejected,
    )


def boltzmann_weights(values: np.ndarray, kT: float = 50.0) -> np.ndarray:
    """Normalized weights proportional to exp(-f/kT), shifted for safety."""
    if kT <= 0:
        raise ValueError(f"kT must be positive, got {kT}")
    values = np.asarray(values, dtype=float)
    w = np.exp(-(values - values.min()) / kT)
    return w / w.sum()


def resample(
    state: PivotState,
    n: int,
    box: Box,
    rng: np.random.Generator,
    objective: Objective,
    elitism: bool = True,
) -> ProbeSet:
    """New population: pivots (under elitism) plus Gaussian offspring.

    Each offspring picks a base pivot with its Boltzmann weight and adds a
    per-coordinate normal offset of width sigma, clamped into the box.
    """
    if state.weights is None or state.sigma is None:
        raise ValueError("pivot state needs weights and sigma before resampling")
    box = _check_box(box, objective.arity)
    m = state.num_pivots
    num_children = n - m if elitism else n
    if num_children < 0:
        raise ValueError(f"population {n} smaller than pivot count {m}")
    base = rng.choice(m, size=num_children, p=state.weights)
    offsets = rng.normal(0.0, 1.0, size=(num_children, len(box))) * state.sigma
    children = state.points[base] + offsets
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    children = np.clip(children, lo, hi)
    child_values = objective.batch(children)
    if elitism:
        points = np.vstack([state.points, children])
        values = np.concatenate([state.values, child_values])
    else:
        points, values = children, child_values
    return ProbeSet(points, values)


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    num_pivots: int
    sigma: tuple[float, ...]
    threshold: float
    optimal_k: int
    grover_iterations: int
    rejected_draws: int
    best_value: float


@dataclass
class PivotSearchResult:
    best_value: float
    best_point: tuple[float, ...]
    generations: list[GenerationRecord]
    total_iterations: int
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
    box = _check_box(box, objective.arity)
    check_qubits(qubits)
    n = 1 << qubits
    probes = generate_probes(box, n, rng, objective)
    i = int(np.argmin(probes.values))
    best_value = float(probes.values[i])
    best_point = probes.points[i].copy()
    sigma = np.array([(hi - lo) / config.sigma_scale for lo, hi in box])

    records: list[GenerationRecord] = []
    total_iterations = 0
    stall = 0
    converged = False
    for generation in range(1, config.max_generations + 1):
        state = select_pivots(probes, config.fraction, rng)
        state.weights = boltzmann_weights(state.values, config.kT)
        state.sigma = sigma.copy()
        state.generation = generation
        total_iterations += state.grover_iterations

        probes = resample(state, n, box, rng, objective, elitism=config.elitism)
        i = int(np.argmin(probes.values))
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
                sigma=tuple(float(s) for s in sigma),
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
    # Stage-5 box for method 2: reflect the Z window below the triangle
    # plane, where the second face-capping site lives.
    mirror_fifth: bool = True
    pivot: PivotConfig = field(default_factory=PivotConfig)

    def __post_init__(self):
        if self.method not in (1, 2):
            raise ValueError(f"method must be 1 or 2, got {self.method}")
        if self.qubits_per_axis < 1 or self.trimer_qubits < 2:
            raise ValueError("qubit counts must be positive")
        if self.bond is not None and self.bond <= 0:
            raise ValueError(f"bond must be positive, got {self.bond}")


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
    total_iterations: int


def _cluster_total_energy(positions: np.ndarray) -> float:
    return ClusterGeometry(positions).fixed_energy


def lj_growth(
    target_atoms: int, config: GrowthConfig, rng: np.random.Generator
) -> GrowthResult:
    """Grow a cluster one atom at a time, freezing each found position.

    Stage 3 finds the shared bond of the equilateral seed (or takes it from
    config); stages 4 and 5 search one free atom around the frozen core.
    Method 2 pins the free atom's X at 0 with Y, Z on qubits_per_axis qubits
    each; method 1 frees X, Y, Z on 4+3+3 qubits.
    """
    if target_atoms not in (4, 5):
        raise ValueError(f"target_atoms must be 4 or 5, got {target_atoms}")
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

    positions = core.fixed_atoms
    for num_atoms in range(4, target_atoms + 1):
        geometry = ClusterGeometry(positions)
        mirrored = num_atoms == 5 and config.mirror_fifth
        if config.method == 2:
            box = GROWTH_BOX_YZ_MIRRORED if mirrored else GROWTH_BOX_YZ
            objective = free_atom_objective(geometry, pin_x=0.0)
            qubits = 2 * config.qubits_per_axis
        else:
            box = GROWTH_BOX_XYZ_MIRRORED if mirrored else GROWTH_BOX_XYZ
            objective = free_atom_objective(geometry)
            qubits = 10
        search = pivot_grover_search(objective, box, qubits, config.pivot, rng)
        total_iterations += search.total_iterations
        if config.method == 2:
            new_atom = np.array([0.0, search.best_point[0], search.best_point[1]])
        else:
            new_atom = np.array(search.best_point)
        positions = np.vstack([positions, new_atom])
        stages.append(
            GrowthStage(
                num_atoms=num_atoms,
                positions=positions.copy(),
                energy=_cluster_total_energy(positions),
                box=list(box),
                search=search,
            )
        )

    return GrowthResult(
        stages=stages,
        final_positions=positions.copy(),
        final_energy=stages[-1].energy,
        total_iterations=total_iterations,
    )
