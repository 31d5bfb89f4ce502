"""Basis-index -> grid-point decoding for multivariable search domains.

Each variable gets ``q`` qubits and an endpoint-inclusive uniform grid of
2**q levels: level k maps to ``lo + k*(hi - lo)/(2**q - 1)``, so level 0 is
exactly ``lo`` and level 2**q - 1 is exactly ``hi``.  A register index packs
the per-variable levels with the FIRST variable in the MOST significant
bits, matching a tensor product written left to right.  This module owns
the grid rules: ``check_qubits`` is the one register cap, which grids,
probe registers and the dense oracle share, and every decode goes through
``VariableSpec.level_values``, the one level map, or its scalar form
``level_to_value``.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .objectives import _is_real, check_finite

#: Largest register or grid accepted (16M cells).
MAX_QUBITS = 24

#: Most grid cells evaluated at a time (one slab).  A scan holds the slab it
#: is working on and its objective's temporaries, never the whole grid's:
#: on a 10+10 grid, measured with ``tracemalloc``, the peak beyond any kept
#: values is about 3.3 blocks of float64 for Goldstein-Price, 2.3 for the LJ
#: trimer and 1.3 for Shubert.
BLOCK_ROWS = 1 << 16


class RegisterTooLarge(ValueError):
    """A register or grid past ``MAX_QUBITS``, refused before any 2**n allocation."""


def check_qubits(num_qubits: int) -> None:
    """Raise RegisterTooLarge if ``num_qubits`` exceeds ``MAX_QUBITS``."""
    if num_qubits > MAX_QUBITS:
        raise RegisterTooLarge(f"{num_qubits} qubits exceeds the register cap of {MAX_QUBITS}")


def _is_int(value) -> bool:
    """True for a Python or numpy integer, False for a bool (JSON true/false)."""
    if type(value) is int:  # the common case, without the ABC check
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class VariableSpec:
    """One search variable: closed interval [lo, hi] sampled on 2**qubits levels."""

    name: str
    lo: float
    hi: float
    qubits: int

    def __post_init__(self):
        # The name is outside input: refuse a separator, quote or line break in it.
        if not isinstance(self.name, str) or not self.name or set(',"\r\n') & set(self.name):
            raise ValueError(
                "variable name must be a non-empty string without ',', '\"' or a line break,"
                f" got {self.name!r}"
            )
        if not (_is_int(self.qubits) and self.qubits >= 1):
            raise ValueError(f"{self.name}: qubits must be an integer >= 1, got {self.qubits!r}")
        for bound in ("lo", "hi"):
            value = getattr(self, bound)
            if not _is_real(value):
                raise ValueError(f"{self.name}: {bound} must be a real number, got {value!r}")
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
        """Coordinate of one level: ``level_values`` for a scalar, bit for bit.

        The same IEEE operations in Python floats: numpy widens ``lo``, ``k``
        and ``step`` to float64 before it adds and multiplies.
        """
        if not _is_int(k):
            raise ValueError(f"{self.name}: level must be an integer, got {k!r}")
        if not 0 <= k < self.levels:
            raise ValueError(f"{self.name}: level {k} outside [0, {self.levels})")
        if k == 0:
            return float(self.lo)
        if k == self.levels - 1:
            return float(self.hi)
        return float(self.lo) + float(k) * float(self.step)

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
        """Each variable's level at a basis index; the one check of a scalar index."""
        if not _is_int(index):
            raise ValueError(f"index must be an integer, got {index!r}")
        index = int(index)
        if not 0 <= index < self.size:
            raise ValueError("index outside register range")
        return tuple(self.level_fields(index))

    def level_fields(self, indices) -> Iterator:
        """Each variable's level field of ``indices`` (an int or an int array), in turn.

        The one reading of the packed index; unchecked.  A field is computed
        only when the previous one has been taken, so a caller that maps over
        it holds one field at a time.
        """
        for v, s in zip(self.variables, self._shifts):
            yield (indices >> s) & (v.levels - 1)

    def decode(self, index: int) -> tuple[float, ...]:
        """Grid point for a basis index: the row ``decode_batch`` gives it, bit for bit."""
        return tuple(map(VariableSpec.level_to_value, self.variables, self.levels(index)))

    def decode_batch(self, indices: np.ndarray) -> np.ndarray:
        """Grid points for an int array of indices, shape (len(indices), arity)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.size):
            raise ValueError("index outside register range")
        cols = map(VariableSpec.level_values, self.variables, self.level_fields(idx))
        return np.stack(list(cols), axis=-1)

    def all_points(self) -> np.ndarray:
        """Every grid point in index order, shape (size, arity): ``decode_batch``
        of every index, bit for bit.

        Each variable's ``axis_points`` is broadcast into its column of a
        view shaped like the grid, so no index or level array is built.
        """
        points = np.empty((self.size, self.arity))
        grid = points.reshape([v.levels for v in self.variables] + [self.arity])
        for i, v in enumerate(self.variables):
            axis = [1] * self.arity
            axis[i] = v.levels
            grid[..., i] = v.axis_points().reshape(axis)
        return points

    def objective_values(self, objective, values: np.ndarray | None = None) -> np.ndarray:
        """``objective`` at every index, shape (size,): ``values`` if given, checked, else
        ``objective.batch(self.all_points())`` filled in from ``slabs``, which keeps
        only the values, besides one slab at a time."""
        self._check_arity(objective)
        if values is None:
            values = np.empty(self.size)
            for start, slab in self.slabs(objective):
                values[start : start + len(slab)] = slab
                del slab  # not held while the next slab is computed
            return values
        values = np.asarray(values, dtype=float)
        if values.shape != (self.size,):
            raise ValueError(f"values must have shape ({self.size},), got {values.shape}")
        return check_finite(objective.name, values)

    def slabs(self, objective) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, values)`` for consecutive runs of indices, in index order.

        A slab holds at most ``BLOCK_ROWS`` cells: the levels of the leading
        axes are fixed, one axis takes a run of levels and every later axis
        is taken whole, so the slab is ``Objective.mapped_mesh`` of short
        slices of per-axis tables, each axis mapped once by
        ``Objective.map_axis`` (through a product objective's factor).  An
        axis of more than ``BLOCK_ROWS`` levels is mapped one slab's slice at
        a time instead, so no per-axis table outgrows a block.  The values are
        bitwise those of ``objective.batch`` at the slab's points.  A
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

        def vector(v, ks):
            return objective.map_axis(v.level_values(ks))

        tables = [
            vector(v, np.arange(v.levels)) if v.levels <= BLOCK_ROWS else None
            for v in self.variables
        ]

        def part(i, k, stop):
            if tables[i] is None:
                return vector(self.variables[i], np.arange(k, stop))
            return tables[i][k:stop]

        whole = tables[split + 1 :]
        # Each slab is yielded without a local name, so a suspended walk holds
        # no slab while the caller works on it.
        start = 0
        for lead in itertools.product(*map(range, levels[:split])):
            fixed = [part(i, k, k + 1) for i, k in enumerate(lead)]
            for k in range(0, levels[split], run):
                stop = min(k + run, levels[split])
                yield start, objective.mapped_mesh([*fixed, part(split, k, stop), *whole])
                start += (stop - k) * tail

    def _check_arity(self, objective) -> None:
        if objective.arity != self.arity:
            raise ValueError(
                f"objective {objective.name!r} has arity {objective.arity}, layout has {self.arity}"
            )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{v.name}[{v.lo}, {v.hi}]/{v.qubits}q" for v in self.variables
        )
        return f"GridLayout({parts})"


def square_layout(names: list[str], lo: float, hi: float, qubits_each: int) -> GridLayout:
    """Layout with the same interval and qubit budget for every variable."""
    return GridLayout([VariableSpec(n, lo, hi, qubits_each) for n in names])
