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
import operator
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable

import numpy as np

#: Pair distance at or below which a geometry counts as coincident.
CONTACT_EPS = 1e-8

#: Finite stand-in energy for coincident geometries.
ENERGY_CAP = 1e12


@dataclass(frozen=True)
class Objective:
    """Named real-valued function of ``arity`` scalar coordinates, of one of two kinds.

    A coordinate function gives ``batch_fn``, which takes one coordinate
    array per variable; the arrays broadcast against each other, and the
    values have their broadcast shape.  A product objective gives ``factor``
    instead: f(x1, ..., xd) = g(x1) * ... * g(xd), with g mapping an array
    of coordinates elementwise, and every value is that product taken left
    to right.  ``batch`` calls g once on the whole ``(npoints, arity)``
    array; ``mesh`` maps each axis through g once.  Both fields are
    keyword-only; a function of one point is passed as a ``batch_fn`` through
    numpy's ``vectorize`` with ``otypes=[float]``.  A scalar call is a
    one-row batch, and every path refuses NaN or infinite values, so the
    functions run with numpy's floating-point warnings off.
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
        """Values at each row of ``points``, shape (npoints,); all must be finite."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise ValueError(f"expected shape (npoints, {self.arity}), got {pts.shape}")
        with np.errstate(all="ignore"):  # a value that overflows is refused below
            if self.factor is not None:
                factors = np.asarray(self.factor(pts), dtype=float)
                values = reduce(operator.mul, factors.T)
            else:
                values = self.batch_fn(*pts.T)
        return self._checked(values, pts.shape[:1])

    def mesh(self, axes: list[np.ndarray]) -> np.ndarray:
        """Values on the C-order grid of 1-D ``axes``, one per variable, flattened.

        ``batch_fn`` sees the open mesh ``np.ix_(*axes)``, so a term that
        depends on one variable is computed once per level of that axis.
        """
        with np.errstate(all="ignore"):
            if self.factor is not None:
                return self.factor_mesh([self.factor(axis) for axis in axes])
            grid = np.ix_(*axes)
            values = self.batch_fn(*grid)
        return self._checked(values, np.broadcast(*grid).shape).reshape(-1)

    def factor_mesh(self, factors: list[np.ndarray]) -> np.ndarray:
        """A product objective's ``mesh``, given each axis already mapped through g."""
        with np.errstate(all="ignore"):
            values = reduce(operator.mul, np.ix_(*factors))
        return check_finite(self.name, values.reshape(-1))

    def _checked(self, values, shape: tuple[int, ...]) -> np.ndarray:
        """``values`` as a float array; ValueError unless it has ``shape`` and is finite."""
        values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise ValueError(f"objective {self.name!r} gave shape {values.shape}, expected {shape}")
        return check_finite(self.name, values)


def check_finite(name: str, values: np.ndarray) -> np.ndarray:
    """``values``, or ValueError naming objective ``name`` if any is NaN or infinite.

    ``min`` and ``max`` propagate NaN and expose an infinity, so finite values
    pass without a mask; the non-finite ones are counted only for the error.
    """
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        bad = values.size - np.count_nonzero(np.isfinite(values))
        raise ValueError(f"objective {name!r} gave {bad} non-finite values")
    return values


Box = list[tuple[float, float]]


def check_box(box: Box, arity: int) -> Box:
    """``box`` as float ``(lo, hi)`` pairs, one per variable, finite and lo <= hi."""
    try:
        box = [(float(lo), float(hi)) for lo, hi in box]
    except (TypeError, ValueError):
        raise ValueError(f"box must be a list of [lo, hi] pairs, got {box!r}") from None
    if len(box) != arity:
        raise ValueError(f"box has {len(box)} axes, objective takes {arity}")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"box bounds must be finite, got [{lo}, {hi}]")
        if hi < lo:
            raise ValueError(f"empty box axis [{lo}, {hi}]")
    return box


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


#: Shubert's term index i = 1..5 and frequency i + 1, as columns, and the
#: most elements of x whose five terms are held at once (2.5 MiB of terms).
_SHUBERT_I = np.arange(1.0, 6.0)[:, None]
_SHUBERT_FREQ = _SHUBERT_I + 1.0
SHUBERT_BLOCK = 1 << 16


def shubert_axis(x):
    """Shubert's per-axis factor: the terms i*cos((i+1)x + i), i = 1..5, added in order.

    Elementwise over a scalar or an array of any shape.  The five terms of a
    block of x are rows of one array, so each block takes one ``np.cos``
    call; ``np.add.reduce`` over those rows adds them one row after the
    next, which is the left-to-right order of the written sum.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    total = np.empty(flat.shape)
    for start in range(0, flat.size, SHUBERT_BLOCK):
        block = slice(start, start + SHUBERT_BLOCK)
        terms = _SHUBERT_FREQ * flat[block]
        terms += _SHUBERT_I
        np.cos(terms, out=terms)
        terms *= _SHUBERT_I
        np.add.reduce(terms, axis=0, out=total[block])
    return total.reshape(x.shape)[()]  # a scalar in, a numpy scalar out


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
                r = float(np.linalg.norm(atoms[i] - atoms[j]))
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
    pair energy in a second.  A zero bond gives inf or NaN in ``bonds``, and
    the cap replaces exactly those cells.
    """
    bonds = 2.0 * _lj_in_place(np.array(b, dtype=float))
    r = 2.0 * b * b * (1.0 - np.cos(a))
    np.maximum(r, 0.0, out=r)
    np.sqrt(r, out=r)
    capped = ~(r > CONTACT_EPS)  # a NaN distance is capped too
    np.maximum(r, CONTACT_EPS, out=r)
    energy = _lj_in_place(r)
    energy += bonds
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
