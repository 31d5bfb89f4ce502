"""Classical references: exhaustive grid minimization and zoom refinement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import GridLayout, check_qubits
from .objectives import Box, Objective, check_box


@dataclass(frozen=True)
class GridMinimum:
    index: int
    point: tuple[float, ...]
    value: float
    num_evaluations: int


def grid_brute_min(
    objective: Objective, layout: GridLayout, *, values: np.ndarray | None = None
) -> GridMinimum:
    """Exact minimum over every grid point; ties break to the lowest index.

    The scan reduces over ``layout.slabs`` and holds one slab at a time, never
    the whole grid's values; given ``values``, they are the one slab.  Each
    slab's ``argmin`` (the first index on ties) replaces the best only if
    strictly lower, so a tie keeps the earlier slab.
    """
    if values is None:
        slabs = layout.slabs(objective)
    else:
        slabs = [(0, layout.objective_values(objective, values))]
    idx, best = -1, np.inf
    for start, slab in slabs:
        i = int(np.argmin(slab))
        if slab[i] < best:
            idx, best = start + i, slab[i]
        del slab  # not held while the next slab is computed
    return GridMinimum(
        index=idx,
        point=layout.decode(idx),
        value=float(best),
        num_evaluations=layout.size,
    )


@dataclass(frozen=True)
class RefinedMinimum:
    point: tuple[float, ...]
    value: float
    num_evaluations: int
    levels: int


def refine_min(
    objective: Objective,
    box: Box,
    levels: int = 5,
    points_per_axis: int = 15,
    zoom: float = 0.25,
) -> RefinedMinimum:
    """Continuous reference minimum by iterated grid zoom.

    Scans a points_per_axis^d mesh over the box, re-centers a box shrunk by
    ``zoom`` on the incumbent (shifted to stay inside the original bounds),
    and repeats.  The incumbent carries across levels, so the reported value
    never increases with more levels.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    if points_per_axis < 2:
        raise ValueError(f"points_per_axis must be >= 2, got {points_per_axis}")
    if not 0 < zoom < 1:
        raise ValueError(f"zoom must be in (0, 1), got {zoom}")
    box = check_box(box, objective.arity)
    for lo, hi in box:
        if lo == hi:
            raise ValueError(f"degenerate box axis [{lo}, {hi}]")
    check_qubits((int(points_per_axis) ** len(box) - 1).bit_length())

    current = list(box)
    best_point: list | None = None
    best_value = np.inf
    evaluations = 0
    for _ in range(levels):
        axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in current]
        vals = objective.mesh(axes)
        evaluations += len(vals)
        i = int(np.argmin(vals))
        if vals[i] < best_value:
            best_value = float(vals[i])
            best_point = [a[j] for a, j in zip(axes, np.unravel_index(i, [len(a) for a in axes]))]
        widths = [(hi - lo) * zoom for lo, hi in current]
        current = []
        for (lo0, hi0), w, c in zip(box, widths, best_point):
            lo = min(max(c - w / 2.0, lo0), hi0 - w)
            current.append((lo, lo + w))
    return RefinedMinimum(
        point=tuple(float(x) for x in best_point),
        value=best_value,
        num_evaluations=evaluations,
        levels=levels,
    )
