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
    one-row batch, and every path refuses NaN or infinite values.
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
        if self.factor is not None:
            factors = np.asarray(self.factor(pts), dtype=float)
            return self._checked(reduce(operator.mul, factors.T), pts.shape[:1])
        return self._checked(self.batch_fn(*pts.T), pts.shape[:1])

    def mesh(self, axes: list[np.ndarray]) -> np.ndarray:
        """Values on the C-order grid of 1-D ``axes``, one per variable, flattened.

        ``batch_fn`` sees the open mesh ``np.ix_(*axes)``, so a term that
        depends on one variable is computed once per level of that axis.
        """
        if self.factor is not None:
            return self.factor_mesh([self.factor(axis) for axis in axes])
        grid = np.ix_(*axes)
        return self._checked(self.batch_fn(*grid), np.broadcast(*grid).shape).reshape(-1)

    def factor_mesh(self, factors: list[np.ndarray]) -> np.ndarray:
        """A product objective's ``mesh``, given each axis already mapped through g."""
        return check_finite(self.name, reduce(operator.mul, np.ix_(*factors)).reshape(-1))

    def _checked(self, values, shape: tuple[int, ...]) -> np.ndarray:
        """``values`` as a float array; ValueError unless it has ``shape`` and is finite."""
        values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise ValueError(f"objective {self.name!r} gave shape {values.shape}, expected {shape}")
        return check_finite(self.name, values)


def check_finite(name: str, values: np.ndarray) -> np.ndarray:
    """``values``, or ValueError naming objective ``name`` if any is NaN or infinite."""
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
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
    """Goldstein-Price polynomial; global minimum 3 at (0, -1)."""
    a = 1 + (x1 + x2 + 1) ** 2 * (
        19 - 14 * x1 + 3 * x1**2 - 14 * x2 + 6 * x1 * x2 + 3 * x2**2
    )
    b = 30 + (2 * x1 - 3 * x2) ** 2 * (
        18 - 32 * x1 + 12 * x1**2 + 48 * x2 - 36 * x1 * x2 + 27 * x2**2
    )
    return a * b


def shubert_axis(x):
    """Shubert's per-axis factor: the terms i*cos((i+1)x + i), i = 1..5, added in order.

    Elementwise over a scalar or an array of any shape.
    """
    x = np.asarray(x, dtype=float)
    total = (
        np.cos(2 * x + 1)
        + 2 * np.cos(3 * x + 2)
        + 3 * np.cos(4 * x + 3)
        + 4 * np.cos(5 * x + 4)
        + 5 * np.cos(6 * x + 5)
    )
    return total[()]  # a scalar in, a numpy scalar out


def shubert_eval(x1, x2):
    """Shubert product of two 5-term cosine sums; 18 global minima at -186.7309.

    Scalars or arrays that broadcast.
    """
    return shubert_axis(x1) * shubert_axis(x2)


def lj_pair(r: float) -> float:
    """Reduced-unit pair energy V(r) = r^-12 - 2 r^-6 (minimum -1 at r = 1)."""
    if r <= 0:
        raise ValueError(f"pair separation must be positive, got {r}")
    inv6 = r ** -6
    return inv6 * inv6 - 2.0 * inv6


def _lj(r):
    # Vectorized pair energy without the positivity guard (callers pre-check).
    inv6 = np.asarray(r, dtype=float) ** -6
    return inv6 * inv6 - 2.0 * inv6


def trimer_energy(b1: float, b2: float, a1: float) -> float:
    """Energy of three atoms given two bond lengths and the angle between them.

    The third pair distance follows from the law of cosines.  The angle may
    equal pi exactly (collinear); a coincident third pair returns ENERGY_CAP.
    """
    if b1 <= 0 or b2 <= 0:
        raise ValueError(f"bond lengths must be positive, got {b1}, {b2}")
    if not 0 < a1 <= math.pi:
        raise ValueError(f"bond angle must be in (0, pi], got {a1}")
    r12_sq = b1 * b1 + b2 * b2 - 2.0 * b1 * b2 * math.cos(a1)
    r12 = math.sqrt(max(r12_sq, 0.0))
    if r12 <= CONTACT_EPS:
        return ENERGY_CAP
    return lj_pair(b1) + lj_pair(b2) + lj_pair(r12)


@dataclass(frozen=True)
class ClusterGeometry:
    """Frozen atom positions plus their precomputed internal energy."""

    fixed_atoms: np.ndarray  # shape (k, 3)
    fixed_energy: float = field(init=False)

    def __post_init__(self):
        atoms = np.asarray(self.fixed_atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] != 3:
            raise ValueError(f"fixed_atoms must have shape (k, 3), got {atoms.shape}")
        object.__setattr__(self, "fixed_atoms", atoms)
        energy = 0.0
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                r = float(np.linalg.norm(atoms[i] - atoms[j]))
                if r <= CONTACT_EPS:
                    raise ValueError(f"fixed atoms {i} and {j} coincide (r = {r})")
                energy += lj_pair(r)
        object.__setattr__(self, "fixed_energy", energy)

    @property
    def num_fixed(self) -> int:
        return self.fixed_atoms.shape[0]


def cluster_energy(geometry: ClusterGeometry, free_pos) -> float:
    """Total pair energy of the frozen atoms plus one free atom.

    Returns ENERGY_CAP if the free atom sits within CONTACT_EPS of any
    frozen atom.
    """
    pos = np.asarray(free_pos, dtype=float)
    if pos.shape != (3,):
        raise ValueError(f"free position must be a 3-vector, got shape {pos.shape}")
    if not np.isfinite(pos).all():
        raise ValueError("free position must be finite")
    return float(_free_atom_batch(geometry, *pos[:, None])[0])


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
    r12_sq = 2.0 * b * b * (1.0 - np.cos(a))
    r12 = np.sqrt(np.maximum(r12_sq, 0.0))
    # A zero bond gives inf/nan in _lj(b); the cap replaces exactly those cells.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bonds = 2.0 * _lj(b)
    return np.where(r12 > CONTACT_EPS, bonds + _lj(np.maximum(r12, CONTACT_EPS)), ENERGY_CAP)


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
    """
    atoms = geometry.fixed_atoms
    shape = np.broadcast(x, y, z).shape + (len(atoms),)
    r, d = np.empty(shape), np.empty(shape)
    np.subtract(np.asarray(x)[..., None], atoms[:, 0], out=r)
    r *= r
    for axis, c in ((1, y), (2, z)):
        np.subtract(np.asarray(c)[..., None], atoms[:, axis], out=d)
        d *= d
        r += d
    np.sqrt(r, out=r)
    close = r <= CONTACT_EPS
    # Contact is rare, so the per-point test over the short atom axis runs
    # only when some pair is close.
    bad = close.any(axis=-1) if close.any() else False
    np.maximum(r, CONTACT_EPS, out=r)
    total = geometry.fixed_energy + np.sum(_lj(r), axis=-1)
    return np.where(bad, ENERGY_CAP, total)


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
