"""The four benchmark workloads: seeded inputs, timed calls and output checks.

Each workload is a closed loop of *passes*; a pass is a short, fixed list of
*operations* built from the run seed and the pass number, and each operation
is one call into grovermin's public API.  Calls go through the module
attribute (``minsearch.adapted_grover_min``, ``pivot.lj_growth``, ...) at call
time, so a traced run sees them through its wrappers.  ``check`` inspects an
operation's result outside the timed region and returns an ``Outcome``; a
non-empty ``problems`` list makes the operation count as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from grovermin import baseline, cli, minsearch, pivot
from grovermin.encoding import GridLayout, VariableSpec, square_layout
from grovermin.minsearch import Schedule, StopRule
from grovermin.objectives import GOLDSTEIN_PRICE, LJ_TRIMER, SHUBERT, get_objective
from reference import Reference

#: Global minimum of the Shubert function and of the five-atom LJ cluster in
#: reduced units; no correct result can lie below them.
SHUBERT_FLOOR = -186.7309089
LJ5_FLOOR = -9.1038525

#: Reference values a search "reaches" when within the tolerance.
SHUBERT_REF, SHUBERT_TOL = -186.7309, 1e-2
LJ5_REF, LJ5_TOL = -9.0952, 0.05


@dataclass
class Outcome:
    oracle_calls: int  # Grover iterations, or objective evaluations for a scan
    gaps: list[float]  # best value minus reference, one per search
    successes: int  # searches that reached the reference
    fingerprint: object  # equal for equal results
    problems: list[str] = field(default_factory=list)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _search_problems(best_value, best_index, rounds, reference, values, schedule) -> list[str]:
    """Checks shared by single searches and ensemble runs (``rounds`` as dicts)."""
    problems = []
    if best_value < reference:
        problems.append(f"best {best_value!r} below the grid minimum {reference!r}")
    if best_value != values[best_index]:
        problems.append(f"best {best_value!r} is not the value at index {best_index}")
    if best_value != min(r["value"] for r in rounds):
        problems.append("best value is not the lowest measured value")
    thresholds = [r["threshold"] for r in rounds]
    if any(b > a for a, b in zip(thresholds, thresholds[1:])):
        problems.append("threshold increased")
    if any(r["iterations"] != schedule.iterations(r["round"]) for r in rounds):
        problems.append("round iterations differ from the schedule")
    return problems


class Descent:
    """The same pool of seeded searches in every run; the run seed sets their order.

    One 20-qubit search costs from 0.7 s to 2.8 s depending on its random
    stream (12 to 38 rounds), and a run has room for only a handful, so
    drawing the streams from the run seed would make the run's work, and
    every time measured on it, vary by a third from seed to seed.
    """

    name = "descent-20q"

    def __init__(self, out_dir: Path, small: bool = False):
        self.qubits = 4 if small else 10
        self.fixed_passes = 1 if small else 8
        self.largest_array_bytes = 16 << (2 * self.qubits)  # complex amplitudes
        self.calibration = Reference(1 << 20)

    def setup(self) -> None:
        self.layout = square_layout(["x1", "x2"], -3.2, 3.0, self.qubits)
        self.values = GOLDSTEIN_PRICE.batch(self.layout.all_points())
        self.reference = baseline.grid_brute_min(GOLDSTEIN_PRICE, self.layout, values=self.values)

    def ops(self, seed: int, p: int):
        order = rng_for(seed).permutation(self.fixed_passes)
        rng = rng_for(0, int(order[p % self.fixed_passes]))
        schedule, stop = Schedule("baritompa"), StopRule()
        return [
            (
                "gp",
                lambda: minsearch.adapted_grover_min(
                    GOLDSTEIN_PRICE, self.layout, schedule, stop, rng, values=self.values
                ),
            )
        ]

    def check(self, kind: str, result) -> Outcome:
        rounds = [
            {"round": r.round, "iterations": r.iterations, "value": r.value, "threshold": r.threshold_after}
            for r in result.trace.rounds
        ]
        ref = self.reference.value
        problems = _search_problems(
            result.best_value, result.best_index, rounds, ref, self.values, Schedule("baritompa")
        )
        if tuple(result.best_point) != self.layout.decode(result.best_index):
            problems.append("best point does not decode from the best index")
        if not _close(GOLDSTEIN_PRICE(*result.best_point), result.best_value):
            problems.append("best value differs from the objective at the best point")
        return Outcome(
            oracle_calls=result.total_iterations,
            gaps=[result.best_value - ref],
            successes=int(result.best_value == ref),
            fingerprint=(result.best_index, tuple((r.index, r.iterations) for r in result.trace.rounds)),
            problems=problems,
        )


class Ensemble:
    """Two ``gp`` ensembles and one ``lj-trimer`` ensemble per pass.

    An ``lj-trimer`` ensemble takes about half as long again as a ``gp`` one.
    With equal numbers of the two, the median operation would fall in the
    gap between the classes; two to one keeps it inside the ``gp`` class.
    As in ``Descent``, every run holds the same pool of passes and the run
    seed orders them: one ``gp`` ensemble's time depends on its seed by
    +-15%, and the median of eighteen would move with the run seed.
    """

    name = "ensemble-10q"
    experiments = ("gp", "lj-trimer")
    pass_ops = ("gp", "gp", "lj-trimer")

    def __init__(self, out_dir: Path, small: bool = False):
        self.out_dir = out_dir / self.name
        self.runs = 4 if small else 100
        self.fixed_passes = 1 if small else 9
        self.largest_array_bytes = 16 << 10
        self.calibration = Reference(1 << 10)

    def setup(self) -> None:
        self.references, self.values, self.schedules = {}, {}, {}
        for exp in self.experiments:
            config = cli.load_config(exp, None)
            objective = get_objective(config["objective"])
            layout = cli.build_layout(config)
            self.references[exp] = baseline.grid_brute_min(objective, layout).value
            self.values[exp] = objective.batch(layout.all_points())
            self.schedules[exp] = Schedule.parse(config["schedule"])
            (self.out_dir / exp).mkdir(parents=True, exist_ok=True)

    def ops(self, seed: int, p: int):
        q = int(rng_for(seed).permutation(self.fixed_passes)[p % self.fixed_passes])
        ops = []
        for j, exp in enumerate(self.pass_ops):
            base = int(np.random.SeedSequence([0, q, j]).generate_state(1)[0])
            argv = ["ensemble", exp, "--runs", str(self.runs), "--seed", str(base),
                    "--out", str(self.out_dir / exp)]
            ops.append((exp, lambda argv=argv: self._main(argv)))
        return ops

    @staticmethod
    def _main(argv):
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, kind: str, exit_code) -> Outcome:
        if exit_code != 0:
            return Outcome(0, [], 0, None, [f"exit code {exit_code}"])
        raw = (self.out_dir / kind / "ensemble.json").read_bytes()
        payload = json.loads(raw)
        ref = self.references[kind]
        detail = payload["runs_detail"]
        problems = []
        if payload["reference_value"] != ref:
            problems.append(f"reference_value {payload['reference_value']!r} != brute minimum {ref!r}")
        if len(detail) != self.runs:
            problems.append(f"{len(detail)} runs reported, {self.runs} requested")
        successes = sum(1 for d in detail if d["best_value"] == ref)
        if payload["success_fraction"] != successes / self.runs:
            problems.append("success_fraction does not match the runs")
        for d in detail:
            problems += _search_problems(
                d["best_value"], d["best_index"], d["rounds"], ref, self.values[kind], self.schedules[kind]
            )
        return Outcome(
            oracle_calls=sum(d["total_iterations"] for d in detail),
            gaps=[d["best_value"] - ref for d in detail],
            successes=successes,
            fingerprint=hashlib.sha256(raw).hexdigest(),
            problems=problems,
        )


def _lj_energy(positions: np.ndarray) -> float:
    i, j = np.triu_indices(len(positions), 1)
    r = np.linalg.norm(positions[i] - positions[j], axis=1)
    return float(np.sum(r**-12 - 2.0 * r**-6))


class PivotHybrid:
    name = "pivot-hybrid"

    def __init__(self, out_dir: Path, small: bool = False):
        self.qubits = 6 if small else 10
        self.fixed_passes = 1 if small else 28
        self.largest_array_bytes = (1 << self.qubits) * 2 * 5 * 8  # Shubert batch terms
        self.calibration = Reference(1 << 10)
        self.pivot_config = pivot.PivotConfig(max_generations=10) if small else pivot.PivotConfig()
        self.growth_config = (
            pivot.GrowthConfig(qubits_per_axis=3, trimer_qubits=6, pivot=self.pivot_config)
            if small
            else pivot.GrowthConfig()
        )

    def setup(self) -> None:
        self.box = [(-10.0, 10.0), (-10.0, 10.0)]

    def ops(self, seed: int, p: int):
        # Two Shubert searches per growth keep the median operation inside the
        # Shubert class instead of in the gap between two equal-sized classes.
        # As in Descent, the run seed orders a fixed pool of passes.
        q = int(rng_for(seed).permutation(self.fixed_passes)[p % self.fixed_passes])
        rngs = [rng_for(0, q, j) for j in range(3)]
        return [
            *(
                (
                    "shubert",
                    lambda rng=rng: pivot.pivot_grover_search(
                        SHUBERT, self.box, self.qubits, self.pivot_config, rng
                    ),
                )
                for rng in rngs[:2]
            ),
            ("lj-grow", lambda: pivot.lj_growth(5, self.growth_config, rngs[2])),
        ]

    def check(self, kind: str, result) -> Outcome:
        problems = []
        if kind == "shubert":
            best = result.best_value
            if best < SHUBERT_FLOOR:
                problems.append(f"best {best!r} below the Shubert minimum")
            if not _close(SHUBERT(*result.best_point), best):
                problems.append("best value differs from the objective at the best point")
            if any(not lo <= x <= hi for x, (lo, hi) in zip(result.best_point, self.box)):
                problems.append("best point outside the box")
            if result.total_iterations != sum(g.grover_iterations for g in result.generations):
                problems.append("total iterations differ from the generations")
            ref, tol = SHUBERT_REF, SHUBERT_TOL
            fingerprint = (best, result.best_point,
                           tuple((g.optimal_k, g.rejected_draws) for g in result.generations))
        else:
            best = result.final_energy
            if result.final_positions.shape != (5, 3):
                problems.append(f"final cluster has shape {result.final_positions.shape}")
            elif not _close(_lj_energy(result.final_positions), best):
                problems.append("final energy differs from the pair sum of the positions")
            if best < LJ5_FLOOR:
                problems.append(f"energy {best!r} below the five-atom minimum")
            stage_total = sum(s.search.total_iterations for s in result.stages if s.search)
            if result.total_iterations != stage_total:
                problems.append("total iterations differ from the stages")
            ref, tol = LJ5_REF, LJ5_TOL
            fingerprint = (best, result.final_positions.tobytes())
        return Outcome(
            oracle_calls=result.total_iterations,
            gaps=[best - ref],
            successes=int(abs(best - ref) <= tol),
            fingerprint=fingerprint,
            problems=problems,
        )


class Scan:
    name = "scan-24q"

    def __init__(self, out_dir: Path, small: bool = False):
        self.qubits = 5 if small else 12
        self.fixed_passes = 1 if small else 3
        self.largest_array_bytes = (1 << 2 * self.qubits) * 2 * 5 * 8  # Shubert batch terms
        self.calibration = Reference(1 << 22)

    def setup(self) -> None:
        q = self.qubits
        # kind -> (objective, layout, analytic minimum, grid tolerance)
        self.cases = {
            "shubert": (SHUBERT, square_layout(["x1", "x2"], -10.0, 10.0, q), SHUBERT_FLOOR, 1e-2),
            "gp": (GOLDSTEIN_PRICE, square_layout(["x1", "x2"], -3.2, 3.0, q), 3.0, 1e-3),
            "lj-trimer": (
                LJ_TRIMER,
                GridLayout([VariableSpec("B", 0.0001, 2.0, q), VariableSpec("A", 0.0001, math.pi, q)]),
                -3.0,
                1e-3,
            ),
        }

    def ops(self, seed: int, p: int):
        # The grids do not depend on the seed, and a fixed order puts the
        # first touch of fresh memory on the same scan in every run.
        return [
            (kind, lambda o=objective, l=layout: baseline.grid_brute_min(o, l))
            for kind, (objective, layout, _, _) in self.cases.items()
        ]

    def check(self, kind: str, result) -> Outcome:
        objective, layout, floor, tol = self.cases[kind]
        problems = []
        if result.num_evaluations != layout.size:
            problems.append(f"{result.num_evaluations} evaluations for {layout.size} points")
        if tuple(result.point) != layout.decode(result.index):
            problems.append("point does not decode from the index")
        here = objective(*result.point)
        if not _close(here, result.value):
            problems.append("value differs from the objective at the point")
        if result.value < floor - 1e-9 * abs(floor):
            problems.append(f"value {result.value!r} below the global minimum {floor!r}")
        levels = layout.levels(result.index)
        for axis, v in enumerate(layout.variables):
            for step in (-1, 1):
                k = levels[axis] + step
                if 0 <= k < v.levels:
                    nb = list(levels)
                    nb[axis] = k
                    point = tuple(w.level_to_value(lv) for w, lv in zip(layout.variables, nb))
                    if objective(*point) < here - 1e-12 * abs(here):
                        problems.append(f"neighbour {point} is lower than the reported minimum")
        return Outcome(
            oracle_calls=result.num_evaluations,
            gaps=[result.value - floor],
            successes=int(result.value - floor <= tol),
            fingerprint=(result.index, result.value),
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (Descent, Ensemble, PivotHybrid, Scan)}
