"""Minimum search by repeated rounds of preparation, marking, amplification and measurement.

A round's marked set is every index whose objective value is at or below
the current threshold, the best value measured so far.  Round 1's threshold
is inf, so it marks everything, yet the search lists no cell for it: a draw
from m = 0 is the same uniform draw as from m = N.  The round applies its
scheduled number of amplification steps to the uniform superposition and
measures once.  The measurement is drawn in closed form (``grover.sample``,
from the round's one ``rng.random()``): from the uniform state every marked
cell ends with the same probability and so does every unmarked cell, so the
search builds no 2**n register.  Those two probabilities come from the
bounded memo of ``grover.class_probabilities``, which every run of an
ensemble and ``round_states`` share, so a round whose (m, N, k) an earlier
round or run met finds the pair there while the memo still holds it.  The
threshold only falls, so each marked set lies inside the last one: the
search scans the grid for the first finite threshold an amplified round
meets, keeps those marked indices as one sorted array and narrows it to the
cells still under the threshold, instead of rescanning the grid every
round.  Both the scan and each narrowing work one block of
``encoding.BLOCK_ROWS`` cells or marks at a time, in place.  Rounds record
indices; the search decodes only its best point.  ``Schedule.steps()``
yields each round's ``(iterations, extended)``, walked once per search;
termination comes from a StopRule, whose limits the loop reads once per
search.  The round loop records each round once, and ``SearchResult``
carries the loop's own ``total_iterations`` and ``iterations_to_best``.
``round_states`` replays a finished search's rounds as marked masks and
class probabilities.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from typing import NamedTuple

import numpy as np

from . import encoding
from .encoding import GridLayout, _is_int
from .grover import class_probabilities, sample
from .objectives import Objective

# The search builds no register; perfbench/spans.py wraps these bindings, so they
# stay until the benchmark is retargeted (ROADMAP item 1).
from .statevector import MarkedSet, iterate, uniform_superposition  # noqa: F401


#: Fixed per-round iteration counts of the Baritompa-style schedule.
BARITOMPA_ENTRIES = (0, 0, 0, 1, 1, 0, 1, 1, 2, 1, 2, 3, 1, 4, 5, 1, 6, 2, 7, 9, 11, 13, 16, 5)


@dataclass(frozen=True)
class Schedule:
    """Per-round amplification-step counts.

    Kinds: "baritompa" (the 24-entry list above; rounds past the list reuse
    its final entry and are flagged as extended), "incremental" (1, 2, 3,
    ...), "constant" (always ``constant``), and "custom" (explicit finite
    list; the Baritompa entries as a custom list stop after round 24).
    """

    kind: str
    constant: int = 1
    entries: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("baritompa", "incremental", "constant", "custom"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "constant":
            if not _is_int(self.constant):
                raise ValueError(
                    f"constant iteration count must be an integer, got {self.constant!r}"
                )
            if self.constant < 0:
                raise ValueError(f"constant iteration count must be >= 0, got {self.constant}")
        if self.kind == "custom":
            if not self.entries:
                raise ValueError("custom schedule needs at least one entry")
            if not all(map(_is_int, self.entries)):
                raise ValueError(f"schedule entries must be integers, got {list(self.entries)!r}")
            if any(e < 0 for e in self.entries):
                raise ValueError(f"schedule entries must be >= 0: {self.entries}")

    def steps(self) -> Iterator[tuple[int, bool]]:
        """``(iterations, extended)`` for rounds 1, 2, ...; ends only where a
        custom list does.  ``extended`` marks a Baritompa round past the list."""
        if self.kind == "baritompa":
            last = (BARITOMPA_ENTRIES[-1], True)
            return chain(zip(BARITOMPA_ENTRIES, repeat(False)), repeat(last))
        if self.kind == "incremental":
            counts = count(1)
        elif self.kind == "constant":
            counts = repeat(self.constant)
        else:
            counts = iter(self.entries)
        return zip(counts, repeat(False))

    def iterations(self, round_index: int) -> int | None:
        """Step count for 1-based ``round_index``; None once exhausted."""
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        return next(islice(self.steps(), round_index - 1, None), (None,))[0]

    @classmethod
    def parse(cls, text) -> "Schedule":
        """Parse "baritompa", "incremental", "constant:K", or an entry list."""
        if isinstance(text, (list, tuple)):
            return cls("custom", entries=tuple(text))
        if not isinstance(text, str):
            raise ValueError(f"schedule must be a string or a list, got {text!r}")
        if text == "baritompa":
            return cls("baritompa")
        if text == "incremental":
            return cls("incremental")
        if text.startswith("constant:"):
            try:
                k = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad constant schedule {text!r}; expected constant:K") from None
            return cls("constant", constant=k)
        raise ValueError(
            f"unknown schedule {text!r}; expected baritompa, incremental, or constant:K"
        )


@dataclass(frozen=True)
class StopRule:
    """Round-loop termination: any satisfied condition stops the search.

    ``stall_window``: stop after this many consecutive rounds without a
    threshold improvement.  ``target``: stop as soon as the best value
    reaches it (used when the grid minimum is known).  ``max_rounds``:
    unconditional cap; stopping on it (or on schedule exhaustion) reports
    converged=False.  A target alone is refused: a grid may never reach it,
    so ``stall_window`` or ``max_rounds`` must bound the loop.
    """

    stall_window: int | None = 8
    target: float | None = None
    max_rounds: int | None = None

    def __post_init__(self):
        for name in ("stall_window", "max_rounds"):
            value = getattr(self, name)
            if value is not None and not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.target is not None and math.isnan(self.target):
            raise ValueError("target must be a number, got nan")
        if self.stall_window is None and self.max_rounds is None:
            raise ValueError(
                "stop needs stall_window or max_rounds; a target alone may never be reached"
            )


class RoundRecord(NamedTuple):
    """One round of a search, immutable.  A tuple, so a writer that wants a
    JSON object per round names the fields itself (``cli.search_result_json``)."""

    round: int
    iterations: int
    extended: bool
    index: int
    value: float
    threshold_before: float
    threshold_after: float


@dataclass
class SearchTrace:
    rounds: list[RoundRecord] = field(default_factory=list)


@dataclass
class SearchResult:
    best_value: float
    best_index: int
    best_point: tuple[float, ...]
    trace: SearchTrace
    converged: bool
    # Amplification steps spent up to and including the round that first
    # measured best_value; excludes the stall-confirmation tail.
    iterations_to_best: int
    # Amplification steps spent over every round.
    total_iterations: int

    @property
    def num_rounds(self) -> int:
        return len(self.trace.rounds)


def _under(values: np.ndarray, threshold: float, strict: bool) -> np.ndarray:
    """Mask of the ``values`` a round at ``threshold`` marks: f < M if strict, else f <= M."""
    return values < threshold if strict else values <= threshold


def _scan(values: np.ndarray, threshold: float, strict: bool) -> np.ndarray:
    """Sorted indices of the ``values`` under ``threshold``, marked one block at a time.

    A grid of more than ``encoding.BLOCK_ROWS`` cells is walked in blocks of
    that many, each block's hits written into one index buffer from
    ``np.empty``, so only the buffer's first m entries are ever touched.
    """
    block = encoding.BLOCK_ROWS
    if len(values) <= block:
        return np.flatnonzero(_under(values, threshold, strict))
    marks = np.empty(len(values), dtype=np.int64)
    m = 0
    for start in range(0, len(values), block):
        hits = np.flatnonzero(_under(values[start : start + block], threshold, strict))
        np.add(hits, start, out=marks[m : m + len(hits)])
        m += len(hits)
    return marks[:m]


def _narrow(marks: np.ndarray, values: np.ndarray, threshold: float, strict: bool) -> np.ndarray:
    """The ``marks`` still under ``threshold``, compacted in place one block of marks at a time.

    Each block is gathered and compared, and its survivors are written back
    behind the read point, so a narrowing allocates a block, not a set.
    """
    block = encoding.BLOCK_ROWS
    if len(marks) <= block:
        return marks[_under(values[marks], threshold, strict)]
    m = 0
    for start in range(0, len(marks), block):
        chunk = marks[start : start + block]
        kept = chunk[_under(values[chunk], threshold, strict)]
        marks[m : m + len(kept)] = kept
        m += len(kept)
    return marks[:m]


def adapted_grover_min(
    objective: Objective,
    layout: GridLayout,
    schedule: Schedule,
    stop: StopRule,
    rng: np.random.Generator,
    *,
    values: np.ndarray | None = None,
    strict: bool = False,
) -> SearchResult:
    """Threshold-descent minimum search over the layout's grid.

    ``values``: optional precomputed objective values for all indices (they
    are computed once here otherwise).  ``strict`` marks f < M instead of
    f <= M.  Each round's index is drawn by ``grover.sample`` without a
    register, from the sorted marked indices.  Nothing is listed at the
    infinite threshold, where ``sample`` draws from m = 0 as it would from
    m = N; the grid is scanned once for the first finite threshold an
    amplified round meets (``_scan``), and later rounds narrow that array in
    place (``_narrow``), both one block of ``encoding.BLOCK_ROWS`` at a
    time.  A grid or marked set that fits in one block is marked by
    one whole-array expression.  The threshold is the best value measured.
    """
    values = layout.objective_values(objective, values)
    value_at, size, draw, random = values.item, layout.size, sample, rng.random
    # A rule left out never fires: no value reaches -inf and no stall or
    # round count reaches inf.
    target = -math.inf if stop.target is None else stop.target
    stall_window = stop.stall_window or math.inf
    max_rounds = stop.max_rounds or math.inf

    threshold = math.inf
    best_index = -1
    iterations_to_best = 0
    total_iterations = 0
    stall = 0
    trace = SearchTrace()
    record = trace.rounds.append
    converged = False
    # ``marks``: sorted indices of the cells marked at ``marks_threshold``.
    # At inf every cell is marked, but none is listed: ``sample`` draws from
    # m = 0 exactly as from m = N, so the first finite threshold is scanned.
    marks = np.empty(0, dtype=np.int64)
    marks_threshold = math.inf

    for round_index, (k, extended) in enumerate(schedule.steps(), 1):
        # A k = 0 round measures the uniform state whatever is marked, so the
        # marked set is brought up to date only before a round that amplifies.
        # The threshold only falls: the new set is the part of the last one
        # still under it, and only the first finite threshold scans the grid.
        if k > 0 and threshold != marks_threshold:
            if marks_threshold == math.inf:
                marks = _scan(values, threshold, strict)
            else:
                marks = _narrow(marks, values, threshold, strict)
            marks_threshold = threshold
        idx = draw(marks, size, k, random())
        value = value_at(idx)
        total_iterations += k
        after = value if value < threshold else threshold
        record(RoundRecord(round_index, k, extended, idx, value, threshold, after))
        if value < threshold:
            threshold = value
            stall = 0
            best_index = idx
            iterations_to_best = total_iterations
            if threshold <= target:
                converged = True
                break
        else:
            stall += 1
            if stall >= stall_window:
                converged = True
                break
        if round_index >= max_rounds:
            break

    return SearchResult(
        best_value=threshold,
        best_index=best_index,
        best_point=layout.decode(best_index),
        trace=trace,
        converged=converged,
        iterations_to_best=iterations_to_best,
        total_iterations=total_iterations,
    )


def round_states(
    values: np.ndarray, layout: GridLayout, trace: SearchTrace, strict: bool = False
):
    """Yield ``(record, marked, (a, b))`` for each ``RoundRecord`` of a search's ``trace``.

    ``marked`` is the round's boolean mask, rebuilt from the record's threshold
    by the marking rule the search used (``values`` and ``strict`` must be the
    search's), and ``(a, b)`` the probability of each marked and each unmarked
    cell that ``grover.sample`` drew from (``class_probabilities``).
    """
    for record in trace.rounds:
        marked = _under(values, record.threshold_before, strict)
        count = int(np.count_nonzero(marked))
        yield record, marked, class_probabilities(count, layout.size, record.iterations)


@dataclass(frozen=True)
class SearchSetup:
    """Everything one search needs except the random stream."""

    objective: Objective
    layout: GridLayout
    schedule: Schedule
    stop: StopRule
    strict: bool = False


@dataclass
class EnsembleStats:
    """Statistics over independent seeded searches of the same setup."""

    results: list[SearchResult]
    reference_value: float
    success_fraction: float
    mean_rounds: float
    median_rounds: float
    mean_total_iterations: float
    median_total_iterations: float
    mean_iterations_to_best: float
    median_iterations_to_best: float
    rounds_histogram: dict[int, int]


def spawn_rngs(base_seed: int, n_runs: int) -> list[np.random.Generator]:
    """Independent generators for runs 0..n_runs-1, split from ``base_seed``.

    Run i's stream does not depend on how many runs follow it.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(base_seed).spawn(n_runs)]


def run_ensemble(setup: SearchSetup, n_runs: int, base_seed: int) -> EnsembleStats:
    """Run ``n_runs`` searches with seeds split from ``base_seed``.

    Success means a run's best value equals the exhaustive grid minimum.
    Objective values over the grid are computed once and shared.
    """
    rngs = spawn_rngs(base_seed, n_runs)
    values = setup.layout.objective_values(setup.objective)
    reference = float(values.min())
    results = [
        adapted_grover_min(
            setup.objective,
            setup.layout,
            setup.schedule,
            setup.stop,
            rng,
            values=values,
            strict=setup.strict,
        )
        for rng in rngs
    ]
    rounds = np.array([r.num_rounds for r in results])
    totals = np.array([r.total_iterations for r in results])
    to_best = np.array([r.iterations_to_best for r in results])
    successes = sum(1 for r in results if r.best_value == reference)
    return EnsembleStats(
        results=results,
        reference_value=reference,
        success_fraction=successes / n_runs,
        mean_rounds=float(rounds.mean()),
        median_rounds=float(np.median(rounds)),
        mean_total_iterations=float(totals.mean()),
        median_total_iterations=float(np.median(totals)),
        mean_iterations_to_best=float(to_best.mean()),
        median_iterations_to_best=float(np.median(to_best)),
        rounds_histogram=dict(sorted(Counter(rounds.tolist()).items())),
    )
