"""Objective functions for the search experiments.

An ``Objective`` is a checked coordinate function or a checked product of
one per-axis factor.  Three families: the Goldstein-Price polynomial, the
Shubert cosine product, and Lennard-Jones cluster energies.  LJ energies use
reduced units with pair well depth 1 at separation 1, V(r) = r^-12 - 2 r^-6;
all cluster energies are sums of V over distinct pairs.  Geometries with a
pair closer than ``CONTACT_EPS`` return the finite ``ENERGY_CAP`` instead of
overflowing (grids reach bond lengths as small as 1e-4, where r^-12 is large
but still representable; only genuine coincidence is capped).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable

import numpy as np

#: Pair distance at or below which a geometry counts as coincident.
CONTACT_EPS = 1e-8

#: Finite stand-in energy for coincident geometries.
ENERGY_CAP = 1e12

#: Most rows ``Objective.batch`` evaluates at a time.  A block's float64
#: column is 32 KiB, and four atom rows of the free-atom energy are 128 KiB,
#: so a block's temporaries stay within glibc's default 128 KiB mmap
#: threshold and are reused from the heap, not mapped and faulted in afresh
#: for every block.  In a fresh process a 2**20-point GP batch took 29-35 ms
#: in blocks of 2**12 rows, 38-63 ms in blocks of 2**11 and 42-62 ms in
#: blocks of 2**16 (2-CPU host, five runs each).
BATCH_ROWS = 1 << 12


@dataclass(frozen=True)
class Objective:
    """Named real-valued function of ``arity`` scalar coordinates, of one of two kinds.

    A coordinate function gives ``batch_fn``, which takes one coordinate
    array per variable; the arrays broadcast against each other, and the
    values have their broadcast shape.  A product objective gives ``factor``
    instead: f(x1, ..., xd) = g(x1) * ... * g(xd), with g mapping an array
    of coordinates elementwise, and every value is that product taken left
    to right.  ``batch`` calls ``batch_fn`` or g once per block of at most
    ``BATCH_ROWS`` rows; ``mesh`` maps each axis through g once.  Both
    fields are keyword-only; a function of one point is passed as a
    ``batch_fn`` through numpy's ``vectorize`` with ``otypes=[float]``.  A
    scalar call is a one-row batch, and every path refuses NaN or infinite
    values, so the functions run with numpy's floating-point warnings off.
    """

    name: str
    arity: int
    batch_fn: Callable[..., np.ndarray] | None = field(default=None, kw_only=True)
    factor: Callable[[np.ndarray], np.ndarray] | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if (self.batch_fn is None) == (self.factor is None):
            raise ValueError(f"objective {self.name!r} needs exactly one of batch_fn and factor")

    def __call__(self, *coords: float) -> float:
        if len(coords) != self.arity:
            raise ValueError(f"{self.name} takes {self.arity} coordinates, got {len(coords)}")
        return float(self.batch([coords])[0])

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Values at each row of ``points``, shape (npoints,); all must be finite.

        The rows are evaluated ``BATCH_ROWS`` at a time, so a grid-sized
        batch holds its values and one block's temporaries, not temporaries
        of the batch's size.  The whole output is checked once, so an error
        counts every non-finite value in the batch.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise ValueError(f"expected shape (npoints, {self.arity}), got {pts.shape}")
        values = np.empty(len(pts))
        with np.errstate(all="ignore"):  # a value that overflows is refused below
            for start in range(0, len(pts), BATCH_ROWS):
                block = pts[start : start + BATCH_ROWS]
                if self.factor is not None:
                    factors = np.asarray(self.factor(block), dtype=float)
                    out = reduce(operator.mul, factors.T)
                else:
                    out = self.batch_fn(*block.T)
                values[start : start + len(block)] = self._shaped(out, block.shape[:1])
        return check_finite(self.name, values)

    def mesh(self, axes: list[np.ndarray]) -> np.ndarray:
        """Values on the C-order grid of 1-D ``axes``, one per variable, flattened.

        ``batch_fn`` sees the open mesh ``np.ix_(*axes)``, so a term that
        depends on one variable is computed once per level of that axis.
        """
        return self.mapped_mesh(list(map(self.map_axis, axes)))

    def map_axis(self, coords: np.ndarray) -> np.ndarray:
        """One axis of coordinates as ``mapped_mesh`` takes it: through g for a
        product objective, as it is otherwise."""
        if self.factor is None:
            return coords
        with np.errstate(all="ignore"):
            return self.factor(coords)

    def mapped_mesh(self, mapped: list[np.ndarray]) -> np.ndarray:
        """``mesh``, given each axis already through ``map_axis``."""
        grid = np.ix_(*mapped)
        with np.errstate(all="ignore"):
            values = reduce(operator.mul, grid) if self.factor is not None else self.batch_fn(*grid)
            values = self._shaped(values, np.broadcast(*grid).shape)
        return check_finite(self.name, values).reshape(-1)

    def _shaped(self, values, shape: tuple[int, ...]) -> np.ndarray:
        """``values`` as a float array; ValueError unless it has ``shape``."""
        values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise ValueError(f"objective {self.name!r} gave shape {values.shape}, expected {shape}")
        return values


def check_finite(name: str, values: np.ndarray) -> np.ndarray:
    """``values``, or ValueError naming objective ``name`` if any is NaN or infinite.

    One ``np.add.reduce`` pass decides: a NaN or an infinity makes the sum
    non-finite.  Only then are ``min`` and ``max`` taken, which propagate
    NaN and expose an infinity, so finite values whose sum overflows still
    pass.  No path that passes builds a mask; the non-finite values are
    counted only for the error.  numpy's warnings for the overflowing or
    NaN sum are silenced.
    """
    with np.errstate(all="ignore"):
        if (
            values.size
            and not math.isfinite(np.add.reduce(values, axis=None))
            and not (math.isfinite(values.min()) and math.isfinite(values.max()))
        ):
            bad = values.size - np.count_nonzero(np.isfinite(values))
            raise ValueError(f"objective {name!r} gave {bad} non-finite values")
    return values


Box = list[tuple[float, float]]


def _is_real(value) -> bool:
    """True for a Python or numpy real number, False for a bool (JSON true/false)."""
    if type(value) is float:  # the common case, without the ABC check
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_box(box: Box, arity: int) -> Box:
    """``box`` as float ``(lo, hi)`` pairs, one per variable, under the bound rule of
    ``encoding.VariableSpec``: each bound a real number (not a bool) and finite, lo <= hi,
    and a width hi - lo that does not overflow."""
    try:
        pairs = [(lo, hi) for lo, hi in box]
    except (TypeError, ValueError):
        raise ValueError(f"box must be a list of [lo, hi] pairs, got {box!r}") from None
    if len(pairs) != arity:
        raise ValueError(f"box has {len(pairs)} axes, objective takes {arity}")
    checked = []
    for lo, hi in pairs:
        if not (_is_real(lo) and _is_real(hi)):
            raise ValueError(f"box must be a list of [lo, hi] pairs of real numbers, got {box!r}")
        try:
            lo, hi = float(lo), float(hi)
        except OverflowError:  # an integer past the float range
            raise ValueError("box bounds must be finite, got an integer too large") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"box bounds must be finite, got [{lo}, {hi}]")
        if hi < lo:
            raise ValueError(f"empty box axis [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ValueError(f"box width hi - lo overflows, got [{lo}, {hi}]")
        checked.append((lo, hi))
    return checked


def gp_eval(x1, x2):
    """Goldstein-Price polynomial; global minimum 3 at (0, -1).

    Scalars or arrays that broadcast; a scalar pair gives a numpy scalar.
    Each value takes the operations of the textbook ``a * b``, with
    ``a = 1 + (x1 + x2 + 1)**2 * (19 - 14 x1 + 3 x1**2 - 14 x2 + 6 x1 x2 +
    3 x2**2)`` and ``b = 30 + (2 x1 - 3 x2)**2 * (18 - 32 x1 + 12 x1**2 +
    48 x2 - 36 x1 x2 + 27 x2**2)``, in Python's order with operands swapped
    only where they commute, so the values are bitwise that expression's.
    The two factors are summed and multiplied in place in two arrays of the
    broadcast shape: on an open mesh each step that mixes the variables
    would otherwise allocate a fresh array.  The single-variable terms stay
    expressions, so on 1-D columns numpy reuses their temporaries.  The
    product goes to a fresh array, as in the expression, so the heap holds
    the values above the two freed factors, where later large arrays reuse
    the space (with the product written into ``a``, the peak RSS of a
    2**20-point search grew by about 2 MiB).
    """
    x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
    shape = np.broadcast(x1, x2).shape
    a, c = np.empty(shape), np.empty(shape)
    np.add(x1, x2, out=a)
    a += 1
    a *= a
    np.subtract(19 - 14 * x1 + 3 * x1**2, 14 * x2, out=c)
    c += 6 * x1 * x2
    c += 3 * x2**2
    a *= c
    a += 1
    np.add(18 - 32 * x1 + 12 * x1**2, 48 * x2, out=c)
    c -= 36 * x1 * x2
    c += 27 * x2**2
    c *= (2 * x1 - 3 * x2) ** 2
    c += 30
    return (a * c)[()]  # a scalar pair in, a numpy scalar out


#: Shubert's term index i = 1..5 and frequency i + 1, as columns.
_SHUBERT_I = np.arange(1.0, 6.0)[:, None]
_SHUBERT_FREQ = _SHUBERT_I + 1.0


def shubert_axis(x):
    """Shubert's per-axis factor: the terms i*cos((i+1)x + i), i = 1..5, added in order.

    Elementwise over a scalar or an array of any shape.  The five terms of x
    are rows of one array, so one ``np.cos`` call computes them all;
    ``np.add.reduce`` over those rows adds them one row after the next,
    which is the left-to-right order of the written sum.  The callers bound
    the input: ``Objective.batch`` passes one block of rows, and
    ``GridLayout.slabs`` one axis table or slab slice.
    """
    x = np.asarray(x, dtype=float)
    terms = _SHUBERT_FREQ * x.reshape(-1)
    terms += _SHUBERT_I
    np.cos(terms, out=terms)
    terms *= _SHUBERT_I
    return np.add.reduce(terms, axis=0).reshape(x.shape)[()]  # a scalar in, a numpy scalar out


def lj_pair(r: float) -> float:
    """Reduced-unit pair energy V(r) = r^-12 - 2 r^-6 (minimum -1 at r = 1), by
    libm's ``pow``, which can differ from numpy's (``_lj_in_place``) in the last bit."""
    if not r > 0:  # a NaN separation is refused too
        raise ValueError(f"pair separation must be positive, got {r}")
    inv6 = r ** -6
    return inv6 * inv6 - 2.0 * inv6


def _lj_in_place(r: np.ndarray) -> np.ndarray:
    """The pair energy of each separation in the float array ``r``, in one new
    array; overwrites ``r``.  Bitwise ``inv6 * inv6 - 2.0 * inv6`` with
    ``inv6 = r ** -6`` in numpy, and no separation is checked."""
    np.power(r, -6, out=r)
    energy = r * r
    r *= 2.0
    energy -= r
    return energy


@dataclass(frozen=True)
class ClusterGeometry:
    """Frozen atom positions plus their precomputed internal energy."""

    fixed_atoms: np.ndarray  # shape (k, 3)
    fixed_energy: float = field(init=False)

    def __post_init__(self):
        atoms = np.asarray(self.fixed_atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] != 3:
            raise ValueError(f"fixed_atoms must have shape (k, 3), got {atoms.shape}")
        if not np.isfinite(atoms).all():
            raise ValueError(f"fixed_atoms must be finite, got {atoms.tolist()}")
        object.__setattr__(self, "fixed_atoms", atoms)
        energy = 0.0
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                with np.errstate(over="ignore"):  # an overflowing distance is refused below
                    r = float(np.linalg.norm(atoms[i] - atoms[j]))
                if math.isinf(r):
                    raise ValueError(f"fixed atoms {i} and {j}: distance overflows")
                if r <= CONTACT_EPS:
                    raise ValueError(f"fixed atoms {i} and {j} coincide (r = {r})")
                energy += lj_pair(r)
        object.__setattr__(self, "fixed_energy", energy)

def check_bond(bond: float) -> None:
    """Raise ValueError unless ``bond`` is a finite length > 0."""
    if math.isinf(bond):
        raise ValueError(f"bond must be finite, got {bond}")
    if not bond > 0:
        raise ValueError(f"bond must be positive, got {bond}")


def build_fixed_core(num_fixed: int, bond: float) -> ClusterGeometry:
    """Equilateral triangle of side ``bond`` in the z=0 plane, optionally
    capped by the regular-tetrahedron apex over its centroid.

    Triangle: (-bond/2, 0, 0), (bond/2, 0, 0), (0, bond*sqrt(3)/2, 0).
    Apex (num_fixed=4): (0, bond*sqrt(3)/6, bond*sqrt(2/3)).
    """
    check_bond(bond)
    if num_fixed not in (3, 4):
        raise ValueError(f"num_fixed must be 3 or 4, got {num_fixed}")
    atoms = [
        (-bond / 2.0, 0.0, 0.0),
        (bond / 2.0, 0.0, 0.0),
        (0.0, bond * math.sqrt(3.0) / 2.0, 0.0),
    ]
    if num_fixed == 4:
        atoms.append((0.0, bond * math.sqrt(3.0) / 6.0, bond * math.sqrt(2.0 / 3.0)))
    return ClusterGeometry(np.array(atoms))


def _trimer_shared(b, a):
    """Trimer energy with both bonds ``b`` and the angle ``a`` between them.

    Bitwise ``np.where(r12 > CONTACT_EPS, bonds + V(max(r12, CONTACT_EPS)),
    ENERGY_CAP)`` with ``r12 = sqrt(max(2 b b (1 - cos a), 0))``,
    ``bonds = 2 * V(b)`` and V the pair energy of ``_lj_in_place``: the same
    operations, with the full-size steps done in place in one array and the
    pair energy in a second.  The ``max(..., 0)`` is never computed: ``2 b b``
    and ``1 - cos a`` are each +0 or more, or NaN (cos never exceeds 1, and
    1 - 1 is +0), so their product is too, and ``max`` passes NaN through.
    Contact is rare, so the mask, the clamp to ``CONTACT_EPS`` and the cap
    are applied only when the least distance is not above ``CONTACT_EPS``
    (a NaN least distance included).  A zero bond gives inf or NaN in
    ``bonds`` and a zero distance, and the cap replaces exactly those cells.
    """
    bonds = 2.0 * _lj_in_place(np.array(b, dtype=float))
    r = 2.0 * b * b * (1.0 - np.cos(a))
    np.sqrt(r, out=r)
    capped = ~(r > CONTACT_EPS) if r.size and not r.min() > CONTACT_EPS else None
    if capped is not None:
        np.maximum(r, CONTACT_EPS, out=r)
    energy = _lj_in_place(r)
    energy += bonds
    if capped is not None:
        energy[capped] = ENERGY_CAP
    return energy


GOLDSTEIN_PRICE = Objective("gp", 2, batch_fn=gp_eval)
SHUBERT = Objective("shubert", 2, factor=shubert_axis)
#: Three-atom energy with both bonds tied to one grid variable: f(B, A).
LJ_TRIMER = Objective("lj-trimer", 2, batch_fn=_trimer_shared)


def free_atom_objective(geometry: ClusterGeometry, pin_x: float | None = None) -> Objective:
    """Cluster energy as a function of one free atom's coordinates.

    With ``pin_x`` set the objective takes (y, z) and the X coordinate is
    held at that value; otherwise it takes (x, y, z).
    """
    if pin_x is None:
        return Objective("lj-grow-xyz", 3, batch_fn=partial(_free_atom_batch, geometry))
    return Objective("lj-grow-yz", 2, batch_fn=partial(_free_atom_batch, geometry, float(pin_x)))


def _free_atom_batch(geometry: ClusterGeometry, x, y, z) -> np.ndarray:
    """Cluster energy with the free atom at each broadcast (x, y, z).

    The distance to each frozen atom is sqrt((dx*dx + dy*dy) + dz*dz),
    summed in place in that order, which is the order in which
    ``np.linalg.norm(diff, axis=-1)`` adds, so it is bitwise that norm.
    The work is atom-major: one row of every point per frozen atom, so each
    numpy call runs over all the points rather than over a short atom axis.
    The energy is the fixed energy plus ``np.sum`` of the pair energies over
    each point's atoms.  Below 8 atoms that sum adds one atom after the
    next, which adding the rows in order repeats; from 8 on it adds in
    blocks, so it runs on a point-major copy.
    """
    atoms = geometry.fixed_atoms
    shape = np.broadcast(x, y, z).shape
    # Atom j's coordinates broadcast against row j of each (k, *shape) array.
    columns = atoms.T.reshape((3, len(atoms)) + (1,) * len(shape))
    r, d = np.empty((len(atoms),) + shape), np.empty((len(atoms),) + shape)
    np.subtract(x, columns[0], out=r)
    r *= r
    for c, column in ((y, columns[1]), (z, columns[2])):
        np.subtract(c, column, out=d)
        d *= d
        r += d
    del d
    np.sqrt(r, out=r)
    close = r <= CONTACT_EPS
    # Contact is rare, so the per-point test over the atom rows runs only
    # when some pair is close.
    bad = close.any(axis=0) if close.any() else None
    np.maximum(r, CONTACT_EPS, out=r)
    pair = _lj_in_place(r)
    if len(atoms) < 8:
        total = np.add.reduce(pair, axis=0)
    else:
        total = np.add.reduce(np.moveaxis(pair, 0, -1).copy(), axis=-1)
    total += geometry.fixed_energy
    return total if bad is None else np.where(bad, ENERGY_CAP, total)


_REGISTRY = {
    "gp": GOLDSTEIN_PRICE,
    "shubert": SHUBERT,
    "lj-trimer": LJ_TRIMER,
}


def get_objective(name: str) -> Objective:
    """Look up a named objective ("gp", "shubert", "lj-trimer")."""
    try:
        return _REGISTRY[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown objective {name!r}; known: {sorted(_REGISTRY)}") from None
