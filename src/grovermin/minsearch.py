"""Minimum search by repeated rounds of preparation, marking, amplification and measurement.

A round's marked set is every index whose objective value is at or below
the current threshold, the best value measured so far (round 1's threshold
is inf, so it marks everything).  The round applies its scheduled number of
amplification steps to the uniform superposition and measures once.  The
measurement is drawn in closed form (``grover.sample``): from the uniform
state every marked cell ends with the same probability and so does every
unmarked cell, so the search builds no 2**n register.  The threshold only
falls, so each marked set lies inside the last one: the search keeps the
marked indices as one sorted array and narrows it to the cells still under
the threshold, instead of rescanning the grid every round.  Rounds record
indices; the search decodes only its best point.  The round budget comes
from a Schedule; termination from a StopRule.  ``round_states`` replays a
finished search's rounds as marked masks and class probabilities.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .encoding import GridLayout
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
        if self.kind == "constant" and self.constant < 0:
            raise ValueError(f"constant iteration count must be >= 0, got {self.constant}")
        if self.kind == "custom":
            if not self.entries:
                raise ValueError("custom schedule needs at least one entry")
            if any(e < 0 for e in self.entries):
                raise ValueError(f"schedule entries must be >= 0: {self.entries}")

    def iterations(self, round_index: int) -> int | None:
        """Step count for 1-based ``round_index``; None once exhausted."""
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        if self.kind == "incremental":
            return round_index
        if self.kind == "constant":
            return self.constant
        entries = BARITOMPA_ENTRIES if self.kind == "baritompa" else self.entries
        if round_index <= len(entries):
            return entries[round_index - 1]
        if self.kind == "baritompa":
            return entries[-1]
        return None

    def is_extended(self, round_index: int) -> bool:
        """True when the round reuses the final list entry past its end."""
        return self.kind == "baritompa" and round_index > len(BARITOMPA_ENTRIES)

    @classmethod
    def parse(cls, text) -> "Schedule":
        """Parse "baritompa", "incremental", "constant:K", or an entry list."""
        if isinstance(text, (list, tuple)):
            try:
                if any(isinstance(k, bool) for k in text):
                    raise TypeError  # JSON true/false are not step counts
                entries = tuple(operator.index(k) for k in text)
            except TypeError:
                raise ValueError(f"schedule entries must be integers, got {text!r}") from None
            return cls("custom", entries=entries)
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
        if self.stall_window is not None and self.stall_window < 1:
            raise ValueError(f"stall_window must be >= 1, got {self.stall_window}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.target is not None and math.isnan(self.target):
            raise ValueError("target must be a number, got nan")
        if self.stall_window is None and self.max_rounds is None:
            raise ValueError(
                "stop needs stall_window or max_rounds; a target alone may never be reached"
            )


@dataclass(frozen=True)
class RoundRecord:
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

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.rounds)


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

    @property
    def num_rounds(self) -> int:
        return self.trace.num_rounds

    @property
    def total_iterations(self) -> int:
        return self.trace.total_iterations


def _under(values: np.ndarray, threshold: float, strict: bool) -> np.ndarray:
    """Mask of the ``values`` a round at ``threshold`` marks: f < M if strict, else f <= M."""
    return values < threshold if strict else values <= threshold


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
    register, from the sorted marked indices; the grid is scanned once for
    the first amplified round, and later rounds narrow that array.  The
    threshold is the best value measured.
    """
    values = layout.objective_values(objective, values)

    threshold = math.inf
    best_index = -1
    iterations_to_best = 0
    total_iterations = 0
    stall = 0
    trace = SearchTrace()
    converged = False
    # ``marks``: sorted indices of the cells marked at ``marks_threshold``,
    # which stays None until the first amplified round scans the grid.
    # Round 1's threshold is inf, so it marks every (finite) value.
    marks = np.empty(0, dtype=np.int64)
    marks_threshold = None

    round_index = 0
    while True:
        round_index += 1
        k = schedule.iterations(round_index)
        if k is None:
            break  # schedule exhausted: converged stays False
        # A k = 0 round measures the uniform state whatever is marked, so the
        # marked set is brought up to date only before a round that amplifies.
        # The threshold only falls: the new set is the part of the last one
        # still under it, and only the first build scans the grid.
        if k > 0 and threshold != marks_threshold:
            if marks_threshold is None:
                marks = np.flatnonzero(_under(values, threshold, strict))
            else:
                marks = marks[_under(values[marks], threshold, strict)]
            marks_threshold = threshold
        idx = sample(marks, layout.size, k, rng)
        value = float(values[idx])
        new_threshold = min(threshold, value)
        trace.rounds.append(
            RoundRecord(
                round=round_index,
                iterations=k,
                extended=schedule.is_extended(round_index),
                index=idx,
                value=value,
                threshold_before=threshold,
                threshold_after=new_threshold,
            )
        )
        total_iterations += k
        if value < threshold:
            stall = 0
            best_index = idx
            iterations_to_best = total_iterations
        else:
            stall += 1
        threshold = new_threshold

        if stop.target is not None and threshold <= stop.target:
            converged = True
            break
        if stop.stall_window is not None and stall >= stop.stall_window:
            converged = True
            break
        if stop.max_rounds is not None and round_index >= stop.max_rounds:
            break

    return SearchResult(
        best_value=threshold,
        best_index=best_index,
        best_point=layout.decode(best_index),
        trace=trace,
        converged=converged,
        iterations_to_best=iterations_to_best,
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
    hist: dict[int, int] = {}
    for r in rounds:
        hist[int(r)] = hist.get(int(r), 0) + 1
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
        rounds_histogram=dict(sorted(hist.items())),
    )
