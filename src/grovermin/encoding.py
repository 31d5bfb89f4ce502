"""Basis-index <-> grid-point codec for multivariable search domains.

Each variable gets ``q`` qubits and an endpoint-inclusive uniform grid of
2**q levels: level k maps to ``lo + k*(hi - lo)/(2**q - 1)``, so level 0 is
exactly ``lo`` and level 2**q - 1 is exactly ``hi``.  A register index packs
the per-variable levels with the FIRST variable in the MOST significant
bits, matching a tensor product written left to right.  ``GridLayout`` owns
the grid rules: it refuses a register past the cap when built, and every
decode goes through ``VariableSpec.level_values``, the one level map.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .objectives import check_finite
from .statevector import check_qubits

#: Most grid cells evaluated at a time, so a scan over the grid never holds
#: more than one block of coordinates or temporaries.
BLOCK_ROWS = 1 << 16


@dataclass(frozen=True)
class VariableSpec:
    """One search variable: closed interval [lo, hi] sampled on 2**qubits levels."""

    name: str
    lo: float
    hi: float
    qubits: int

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"{self.name}: qubits must be >= 1, got {self.qubits}")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"{self.name}: bounds must be finite")
        if self.hi <= self.lo:
            raise ValueError(f"{self.name}: hi must exceed lo, got [{self.lo}, {self.hi}]")
        if not np.isfinite(float(self.hi) - float(self.lo)):
            raise ValueError(f"{self.name}: width hi - lo overflows, got [{self.lo}, {self.hi}]")
        # A variable past the cap fits no layout, and its level count may not
        # convert to a float for ``step``.
        check_qubits(self.qubits)
        # Adjacent levels must stay distinct floats: a step within two ulps of
        # the larger bound rounds levels together (or to zero width).
        if self.step <= 2 * np.spacing(max(abs(self.lo), abs(self.hi))):
            raise ValueError(
                f"{self.name}: step {self.step:g} cannot separate the levels of"
                f" [{self.lo}, {self.hi}] on {self.qubits} qubits"
            )

    @property
    def levels(self) -> int:
        return 1 << self.qubits

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.levels - 1)

    def level_to_value(self, k: int) -> float:
        if not 0 <= k < self.levels:
            raise ValueError(f"{self.name}: level {k} outside [0, {self.levels})")
        return float(self.level_values(np.array([k]))[0])

    def value_to_level(self, x: float) -> tuple[int, bool]:
        """Nearest grid level, half-away-from-zero; clamped flag if x was outside."""
        if np.isnan(x):
            raise ValueError(f"{self.name}: cannot encode NaN")
        if x < self.lo:
            return 0, True
        if x > self.hi:
            return self.levels - 1, True
        return int(np.floor((x - self.lo) / self.step + 0.5)), False

    def level_values(self, k: np.ndarray) -> np.ndarray:
        """Coordinates of an int array of levels; the end levels snap to exactly lo and hi."""
        x = self.lo + k * self.step
        x[k == 0] = self.lo
        x[k == self.levels - 1] = self.hi
        return x

    def axis_points(self) -> np.ndarray:
        return self.level_values(np.arange(self.levels))


class GridLayout:
    """Packs several variables' grid levels into one register index."""

    def __init__(self, variables: list[VariableSpec]):
        if not variables:
            raise ValueError("at least one variable is required")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.variables = list(variables)
        self.total_qubits = sum(v.qubits for v in variables)
        check_qubits(self.total_qubits)
        self.size = 1 << self.total_qubits
        # Shift of each variable's level field inside the packed index; the
        # first variable lands in the most significant bits.
        shifts = []
        pos = self.total_qubits
        for v in variables:
            pos -= v.qubits
            shifts.append(pos)
        self._shifts = shifts

    @property
    def arity(self) -> int:
        return len(self.variables)

    def levels(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside [0, {self.size})")
        return tuple(
            (index >> s) & (v.levels - 1) for v, s in zip(self.variables, self._shifts)
        )

    def decode(self, index: int) -> tuple[float, ...]:
        """Grid point for a basis index: one row of ``decode_batch``."""
        return tuple(self.decode_batch(np.array([index]))[0].tolist())

    def decode_batch(self, indices: np.ndarray) -> np.ndarray:
        """Grid points for an int array of indices, shape (len(indices), arity)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise ValueError("index outside register range")
        cols = [
            v.level_values((idx >> s) & (v.levels - 1))
            for v, s in zip(self.variables, self._shifts)
        ]
        return np.stack(cols, axis=-1)

    def all_points(self) -> np.ndarray:
        """Every grid point in index order, shape (size, arity)."""
        return self.decode_batch(np.arange(self.size, dtype=np.int64))

    def objective_values(self, objective, values: np.ndarray | None = None) -> np.ndarray:
        """``objective`` at every index: ``values`` if given, checked, else ``evaluate``."""
        if values is None:
            return self.evaluate(objective)
        self._check_arity(objective)
        values = np.asarray(values, dtype=float)
        if values.shape != (self.size,):
            raise ValueError(f"values must have shape ({self.size},), got {values.shape}")
        return check_finite(objective.name, values)

    def evaluate(self, objective) -> np.ndarray:
        """``objective.batch(self.all_points())``, filled in from ``slabs``.

        Only the values, shape (size,), are kept, besides one slab at a time.
        """
        values = np.empty(self.size)
        for start, slab in self.slabs(objective):
            values[start : start + len(slab)] = slab
        return values

    def slabs(self, objective) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, values)`` for consecutive runs of indices, in index order.

        A slab holds at most ``BLOCK_ROWS`` cells: the levels of the leading
        axes are fixed, one axis takes a run of levels and every later axis
        is taken whole, so the slab is an open mesh of short per-axis vectors
        (``Objective.mesh``).  A product objective's factor is mapped over
        each axis once and the slab is the open-mesh product of factor slices
        (``Objective.factor_mesh``).  An axis of more than ``BLOCK_ROWS``
        levels is mapped one slab's slice at a time instead, so no per-axis
        table outgrows a block.  The values are bitwise those of
        ``objective.batch`` at the slab's points.  A
        non-finite value stops the walk at the first slab that holds one, and
        the error counts that slab's non-finite values.
        """
        self._check_arity(objective)
        levels = [v.levels for v in self.variables]
        split, tail = 0, self.size // levels[0]
        while tail > BLOCK_ROWS:
            split += 1
            tail //= levels[split]
        run = min(levels[split], BLOCK_ROWS // tail)
        factor = objective.factor
        combine = objective.mesh if factor is None else objective.factor_mesh

        def vector(v, ks):
            x = v.level_values(ks)
            return x if factor is None else factor(x)

        tables = [
            vector(v, np.arange(v.levels)) if v.levels <= BLOCK_ROWS else None
            for v in self.variables
        ]

        def part(i, k, stop):
            if tables[i] is None:
                return vector(self.variables[i], np.arange(k, stop))
            return tables[i][k:stop]

        whole = tables[split + 1 :]
        start = 0
        for lead in itertools.product(*map(range, levels[:split])):
            fixed = [part(i, k, k + 1) for i, k in enumerate(lead)]
            for k in range(0, levels[split], run):
                stop = min(k + run, levels[split])
                slab = combine([*fixed, part(split, k, stop), *whole])
                yield start, slab
                start += len(slab)

    def _check_arity(self, objective) -> None:
        if objective.arity != self.arity:
            raise ValueError(
                f"objective {objective.name!r} has arity {objective.arity}, layout has {self.arity}"
            )

    def encode(self, values: tuple[float, ...] | list[float]) -> tuple[int, bool]:
        """Index of the nearest grid point; flag is True if any value was clamped."""
        if len(values) != self.arity:
            raise ValueError(f"expected {self.arity} values, got {len(values)}")
        index = 0
        clamped_any = False
        for v, s, x in zip(self.variables, self._shifts, values):
            k, clamped = v.value_to_level(float(x))
            index |= k << s
            clamped_any |= clamped
        return index, clamped_any

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{v.name}[{v.lo}, {v.hi}]/{v.qubits}q" for v in self.variables
        )
        return f"GridLayout({parts})"


def square_layout(names: list[str], lo: float, hi: float, qubits_each: int) -> GridLayout:
    """Layout with the same interval and qubit budget for every variable."""
    return GridLayout([VariableSpec(n, lo, hi, qubits_each) for n in names])
