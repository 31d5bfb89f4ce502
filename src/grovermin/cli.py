"""Command-line driver for the search experiments.

Subcommands: ``run <experiment>``, ``brute <experiment>``, and
``ensemble <experiment>``.  Every experiment has a complete built-in
config, so e.g. ``grovermin run gp`` works with no arguments; a JSON
config file and a handful of flags override the defaults.  Each command is
a generator that only computes: it yields ``(stdout lines, {file name:
artifact})`` items, and ``main`` alone loads the config, prints the lines
and writes the artifacts under ``--out``.  All output is deterministic for
a fixed (config, seed) pair: traces are compact JSON with sorted keys
(``write_json``), histograms and distributions are CSV, and nothing
time-dependent is ever written.  A search trace's rounds carry each
measured index but not its point, which ``GridLayout.decode`` gives.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import sys
import typing
from dataclasses import MISSING, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import grid_brute_min
from .encoding import GridLayout, VariableSpec
from .minsearch import (
    Schedule,
    SearchResult,
    SearchSetup,
    StopRule,
    adapted_grover_min,
    round_states,
    run_ensemble,
    spawn_rngs,
)
from .objectives import get_objective
from .pivot import TRIMER_BOX, GrowthConfig, PivotConfig, lj_growth, pivot_grover_search
from .statevector import MarkedSet, dense_reference_operators, iterate, uniform_superposition

MINSEARCH_EXPERIMENTS = ("gp", "lj-trimer")

#: Goldstein-Price search window, the same on both axes.
GP_SQUARE = (-3.2, 3.0)


def _variable(name: str, window: tuple[float, float], qubits: int) -> dict:
    return asdict(VariableSpec(name, *window, qubits))


#: The ``growth`` section: GrowthConfig's fields (its pivot has its own
#: section) plus the atom count handed to lj_growth.
_GROWTH_DEFAULTS = {
    "target_atoms": 5,
    **{k: v for k, v in asdict(GrowthConfig()).items() if k != "pivot"},
}

DEFAULT_CONFIGS = {
    "appendix-demo": {"experiment": "appendix-demo"},
    "gp": {
        "experiment": "gp",
        "objective": "gp",
        "seed": 0,
        "runs": 1,
        "schedule": "baritompa",
        "layout": [_variable("x1", GP_SQUARE, 5), _variable("x2", GP_SQUARE, 5)],
        "stop": asdict(StopRule()),
        "strict": False,
    },
    "lj-trimer": {
        "experiment": "lj-trimer",
        "objective": "lj-trimer",
        "seed": 0,
        "runs": 1,
        "schedule": "incremental",
        "layout": [_variable("B", TRIMER_BOX[0], 5), _variable("A", TRIMER_BOX[1], 4)],
        "stop": asdict(StopRule()),
        "strict": False,
    },
    "shubert-pivot": {
        "experiment": "shubert-pivot",
        "objective": "shubert",
        "seed": 0,
        "runs": 1,
        "box": [[-10.0, 10.0], [-10.0, 10.0]],
        "qubits": 10,
        "pivot": asdict(PivotConfig()),
    },
    "lj-grow": {
        "experiment": "lj-grow",
        "seed": 0,
        "runs": 1,
        "growth": _GROWTH_DEFAULTS,
        "pivot": asdict(PivotConfig()),
    },
}
EXPERIMENTS = tuple(DEFAULT_CONFIGS)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ValueError(f"unknown config key {where!r}")
        if not isinstance(out[key], dict):
            out[key] = value
        elif isinstance(value, dict):
            out[key] = _merge(out[key], value, where)
        else:
            raise ValueError(f"{where} must be an object, got {value!r}")
    return out


def _integer(where: str, value, bits: int | None = None) -> int:
    """``value`` if a JSON integer >= 1 (in [0, 2**bits) given ``bits``); never truncated."""
    if bits is None:
        ok, span = type(value) is int and value >= 1, ">= 1"
    else:
        ok, span = type(value) is int and 0 <= value < 2**bits, f"in [0, 2**{bits})"
    if not ok:
        raise ValueError(f"{where} must be an integer {span}, got {value!r}")
    return value


def _number(where: str, value) -> float:
    """``value`` as a float if a JSON number: neither a string nor true or false."""
    if type(value) not in (int, float):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the float range
        raise ValueError(f"{where} must be finite, got an integer too large") from None


@functools.cache
def _fields(cls) -> tuple[dict, tuple]:
    """Dataclass ``cls``'s resolved type hints and its fields, read once per class."""
    return typing.get_type_hints(cls), dataclasses.fields(cls)


def _build(section: str, cls, fields: dict, **extra):
    """``cls(**fields, **extra)`` once ``fields`` is checked against dataclass
    ``cls``: keys first (an unknown key, then a field with no default that
    neither ``fields`` nor ``extra`` gives), then each value, in field order, by
    its type hint: an ``int`` by ``_integer``, a ``float`` by ``_number`` (its
    float passed on), a ``bool`` as JSON true or false, and null only where
    the hint allows None.  Fields are named ``section.field``, or bare for the
    top-level section ``""``."""
    hints, declared = _fields(cls)
    prefix = f"{section}." if section else ""
    for name in fields:
        if name not in hints:
            raise ValueError(f"unknown config key {prefix + name!r}")
    for f in declared:
        if f.name not in {**fields, **extra} and f.default is f.default_factory is MISSING:
            raise ValueError(f"{section} needs the key {f.name!r}")
    checked = {name: fields[name] for name in hints if name in fields}
    for name, value in checked.items():
        hint = hints[name]
        if value is None and hint in (int | None, float | None):
            continue
        if hint in (int, int | None):
            _integer(prefix + name, value)
        elif hint in (float, float | None):
            checked[name] = _number(prefix + name, value)
        elif hint is bool and type(value) is not bool:
            raise ValueError(f"{prefix}{name} must be true or false, got {value!r}")
    return cls(**checked, **extra)


def load_config(experiment: str, config_path: str | None) -> dict:
    """Built-in defaults for the experiment, overlaid with the JSON file."""
    if experiment not in DEFAULT_CONFIGS:
        raise ValueError(f"unknown experiment {experiment!r}; known: {EXPERIMENTS}")
    config = copy.deepcopy(DEFAULT_CONFIGS[experiment])
    if config_path is None:
        return config
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config {config_path}: {exc}") from exc
    try:
        overrides = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{config_path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(overrides, dict):
        raise ValueError(f"{config_path}: top level must be an object")
    if overrides.get("experiment", experiment) != experiment:
        raise ValueError(
            f"{config_path}: config is for experiment "
            f"{overrides['experiment']!r}, not {experiment!r}"
        )
    return _merge(config, overrides)


def build_layout(config: dict) -> GridLayout:
    """The config's grid: each variable an object built by ``_build`` as a
    ``VariableSpec``, which checks its name and levels; ``GridLayout`` checks
    the register cap."""
    if not isinstance(config["layout"], list):
        raise ValueError(f"layout must be a list of variables, got {config['layout']!r}")
    variables = []
    for i, spec in enumerate(config["layout"]):
        if not isinstance(spec, dict):
            raise ValueError(f"layout[{i}] must be an object, got {spec!r}")
        variables.append(_build(f"layout[{i}]", VariableSpec, spec))
    return GridLayout(variables)


def build_setup(config: dict) -> SearchSetup:
    return _build(
        "",
        SearchSetup,
        {"strict": config["strict"]},
        objective=get_objective(config["objective"]),
        layout=build_layout(config),
        schedule=Schedule.parse(config["schedule"]),
        stop=_build("stop", StopRule, config["stop"]),
    )


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as compact JSON with sorted keys and a final newline.

    This is the stdlib's C encoder: floats as ``float.__repr__`` (``NaN`` and
    ``Infinity`` as JSON's extensions) and non-ASCII text as ``\\u`` escapes.
    Every artifact is a tree the CLI builds, so no circular check is run."""
    path.write_text(
        json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
    )


def search_result_json(result: SearchResult, run_id: int, seed: int, config: dict) -> dict:
    """A search's JSON trace.  A round's point is ``layout.decode(index)``."""
    return {
        "run_id": run_id,
        "seed": seed,
        "experiment": config["experiment"],
        "schedule": config["schedule"],
        "rounds": [
            {
                "round": r.round,
                "iterations": r.iterations,
                "extended": r.extended,
                "index": r.index,
                "value": r.value,
                "threshold": r.threshold_after,
            }
            for r in result.trace.rounds
        ],
        "best_value": result.best_value,
        "best_index": result.best_index,
        "best_point": list(result.best_point),
        "total_iterations": result.total_iterations,
        "iterations_to_best": result.iterations_to_best,
        "converged": result.converged,
    }


def distribution_csv(values, setup: SearchSetup, result: SearchResult) -> str:
    """A search's measured distributions, one CSV row per round (``round_states``).

    Before its draw a round's register holds probability ``a`` on each of the
    ``marked`` cells under ``threshold_before`` (by the setup's ``strict``
    rule) and ``b`` on every other cell, so its dense distribution is
    ``np.where(mask, a, b)``.  Floats are written as ``repr``.
    """
    rows = (
        f"{r.round},{r.iterations},{r.threshold_before!r},{np.count_nonzero(mask)},{a!r},{b!r}\n"
        for r, mask, (a, b) in round_states(values, setup.layout, result.trace, setup.strict)
    )
    return "round,iterations,threshold_before,marked,a,b\n" + "".join(rows)


def appendix_demo() -> dict:
    """Two-qubit walkthrough: one amplification step pins the lowest corner.

    The register's four indices decode to the corners of the GP search
    square; the corner with the lowest value is marked classically, phase
    inverted, and amplified once, taking the uniform state to a basis state.
    """
    layout = GridLayout([VariableSpec("x1", *GP_SQUARE, 1), VariableSpec("x2", *GP_SQUARE, 1)])
    objective = get_objective("gp")
    points = layout.all_points()
    values = objective.batch(points)
    reference = grid_brute_min(objective, layout, values=values)
    marked = MarkedSet.from_indices(2, [reference.index])
    state = uniform_superposition(2)
    p_s, p_t = dense_reference_operators(2, marked)
    after_flip = (p_t @ state.amplitudes).real
    final = iterate(state, marked, 1)
    return {
        "layout": [vars(v) for v in layout.variables],
        "grid_points": points.tolist(),
        "grid_values": values.tolist(),
        "marked_index": reference.index,
        "marked_point": list(reference.point),
        "uniform": state.amplitudes.real.tolist(),
        "p_s": p_s.tolist(),
        "p_t": p_t.tolist(),
        "after_phase_flip": after_flip.tolist(),
        "final": final.amplitudes.real.tolist(),
    }


def cmd_run(args, config: dict):
    experiment = config["experiment"]
    if args.emit_distributions and experiment not in MINSEARCH_EXPERIMENTS:
        raise ValueError(f"experiment {experiment!r} takes no --emit-distributions")
    if args.emit_distributions and not args.out:
        raise ValueError("--emit-distributions needs --out")

    if experiment == "appendix-demo":
        demo = appendix_demo()
        lines = [
            "two-qubit demo over the GP corner grid",
            f"uniform state     |s> = {demo['uniform']}",
        ]
        for name, key in (("P_s", "p_s"), ("P_t", "p_t")):
            lines.append(f"{name} =")
            lines += ["  [" + "  ".join(f"{x:5.2f}" for x in row) + "]" for row in demo[key]]
        lines += [
            f"marked index {demo['marked_index']} -> point {demo['marked_point']}",
            f"P_t|s> = {demo['after_phase_flip']}",
            f"G|s>   = {demo['final']}",
        ]
        yield lines, {"appendix_demo.json": demo}
        return

    seed = config["seed"]
    rngs = spawn_rngs(seed, config["runs"])

    if experiment in MINSEARCH_EXPERIMENTS:
        setup = build_setup(config)
        values = setup.layout.objective_values(setup.objective)
        for run_id, rng in enumerate(rngs):
            result = adapted_grover_min(
                setup.objective,
                setup.layout,
                setup.schedule,
                setup.stop,
                rng,
                values=values,
                strict=setup.strict,
            )
            line = (
                f"experiment={experiment} run={run_id} "
                f"best={result.best_value!r} point={tuple(result.best_point)} "
                f"rounds={result.num_rounds} total_iterations={result.total_iterations} "
                f"converged={result.converged}"
            )
            if not args.out:  # nothing reads a trace that is not written
                yield [line], {}
                continue
            artifacts = {f"run_{run_id:03d}.json": search_result_json(result, run_id, seed, config)}
            if args.emit_distributions:
                artifacts[f"dist_run{run_id:03d}.csv"] = distribution_csv(values, setup, result)
            yield [line], artifacts
        return

    if experiment == "shubert-pivot":
        objective = get_objective(config["objective"])
        pivot_config = _build("pivot", PivotConfig, config["pivot"])
        qubits = _integer("qubits", config["qubits"])
        for run_id, rng in enumerate(rngs):
            result = pivot_grover_search(objective, config["box"], qubits, pivot_config, rng)
            line = (
                f"experiment={experiment} run={run_id} "
                f"best={result.best_value!r} point={tuple(result.best_point)} "
                f"generations={result.num_generations} "
                f"total_iterations={result.total_iterations} converged={result.converged}"
            )
            trace = {
                "run_id": run_id,
                "seed": seed,
                "experiment": experiment,
                "box": config["box"],
                "qubits": config["qubits"],
                **asdict(result),
            }
            yield [line], {f"run_{run_id:03d}.json": trace}
        return

    # lj-grow, the one experiment left
    growth = dict(config["growth"])
    target_atoms = _integer("growth.target_atoms", growth.pop("target_atoms"))
    pivot_config = _build("pivot", PivotConfig, config["pivot"])
    growth_config = _build("growth", GrowthConfig, growth, pivot=pivot_config)
    for run_id, rng in enumerate(rngs):
        result = lj_growth(target_atoms, growth_config, rng)
        lines = [
            f"experiment=lj-grow run={run_id} atoms={stage.num_atoms} energy={stage.energy!r}"
            for stage in result.stages
        ]
        lines.append(
            f"experiment=lj-grow run={run_id} final_energy={result.final_energy!r} "
            f"total_iterations={result.total_iterations}"
        )
        trace = {
            "run_id": run_id,
            "seed": seed,
            "experiment": experiment,
            "method": growth_config.method,
            "stages": [
                {
                    "num_atoms": stage.num_atoms,
                    "positions": stage.positions.tolist(),
                    "energy": stage.energy,
                    "box": stage.box,
                    "search_best": stage.search.best_value if stage.search else None,
                    "search_generations": stage.search.num_generations if stage.search else None,
                    "search_iterations": stage.search.total_iterations if stage.search else None,
                    "search_converged": stage.search.converged if stage.search else None,
                }
                for stage in result.stages
            ],
            "final_energy": result.final_energy,
            "final_positions": result.final_positions.tolist(),
            "total_iterations": result.total_iterations,
        }
        yield lines, {f"run_{run_id:03d}.json": trace}


def cmd_brute(args, config: dict):
    # The scan uses only the objective and layout, but the search sections
    # are checked as ``run`` checks them, so one file is good or bad for both.
    setup = build_setup(config)
    reference = grid_brute_min(setup.objective, setup.layout)
    payload = {"experiment": config["experiment"], **vars(reference)}
    yield [json.dumps(payload, sort_keys=True)], {"brute.json": payload}


def cmd_ensemble(args, config: dict):
    runs = config["runs"]
    seed = config["seed"]
    setup = build_setup(config)
    stats = run_ensemble(setup, runs, seed)
    line = (
        f"experiment={config['experiment']} runs={runs} "
        f"success_fraction={stats.success_fraction!r} "
        f"mean_rounds={stats.mean_rounds!r} median_rounds={stats.median_rounds!r} "
        f"mean_total_iterations={stats.mean_total_iterations!r} "
        f"median_total_iterations={stats.median_total_iterations!r} "
        f"mean_iterations_to_best={stats.mean_iterations_to_best!r}"
    )
    if not args.out:  # nothing reads the detail that is not written
        yield [line], {}
        return
    histogram = stats.rounds_histogram.items()
    payload = {
        "experiment": config["experiment"],
        "seed": seed,
        "runs": runs,
        "schedule": config["schedule"],
        **{k: v for k, v in vars(stats).items() if k != "results"},
        # String keys, as JSON writes them, so sort_keys orders them as text.
        "rounds_histogram": {str(k): n for k, n in histogram},
        "runs_detail": [
            search_result_json(result, run_id, seed, config)
            for run_id, result in enumerate(stats.results)
        ],
    }
    yield [line], {
        "ensemble.json": payload,
        "rounds_histogram.csv": "bin,count\n" + "".join(f"{k},{n}\n" for k, n in histogram),
    }


def _run_config(args) -> dict:
    """Defaults, then the config file, then the flags; seed and runs checked once."""
    config = load_config(args.experiment, args.config)
    for key in ("seed", "runs", "schedule"):
        value = getattr(args, key, None)
        if value is not None:
            if key not in config:
                raise ValueError(f"experiment {config['experiment']!r} takes no --{key}")
            config[key] = value
    for key, bits in (("seed", 64), ("runs", None)):
        if key in config:
            _integer(key, config[key], bits)
    return config


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="grovermin",
        description="Simulated Grover minimum search, drawn from closed-form amplitudes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config overriding the built-in defaults")
    common.add_argument("--out", help="directory for JSON traces and CSV files")
    # Seeded searches; brute takes neither flag.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="base seed (64-bit unsigned)")
    seeded.add_argument(
        "--schedule",
        help="round schedule: baritompa, incremental, or constant:K",
    )

    p_run = sub.add_parser("run", parents=[common, seeded], help="run one experiment")
    p_run.add_argument("experiment", choices=EXPERIMENTS)
    p_run.add_argument("--runs", type=int, help="number of independent seeded runs")
    p_run.add_argument(
        "--emit-distributions",
        action="store_true",
        help="write per-round pre-measurement distributions as CSV (needs --out)",
    )
    p_run.set_defaults(func=cmd_run)

    p_brute = sub.add_parser(
        "brute", parents=[common], help="exhaustive grid minimum for an experiment layout"
    )
    p_brute.add_argument("experiment", choices=MINSEARCH_EXPERIMENTS)
    p_brute.set_defaults(func=cmd_brute)

    p_ens = sub.add_parser(
        "ensemble",
        parents=[common, seeded],
        help="seeded ensemble statistics for a grid experiment",
    )
    p_ens.add_argument("experiment", choices=MINSEARCH_EXPERIMENTS)
    p_ens.add_argument("--runs", type=int, help="ensemble size")
    p_ens.set_defaults(func=cmd_ensemble)
    return parser


def _out_dir(out: str | None) -> Path | None:
    """``--out`` as a Path, refused before any work unless it or its nearest
    existing ancestor is a directory."""
    if not out:
        return None
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")
    return path


def main(argv: list[str] | None = None) -> int:
    """Load the config, print each item the command yields and write its
    artifacts under ``--out``: JSON for a dict, text for a str.  Every config
    check runs before the first item, so bad input prints and writes nothing.
    Exit 0 on success and 2 on bad input: any ValueError, raised by the CLI
    or by a library check."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = _out_dir(args.out)
        for lines, artifacts in args.func(args, _run_config(args)):
            for line in lines:
                print(line)
            if out is not None:
                out.mkdir(parents=True, exist_ok=True)
                for name, artifact in artifacts.items():
                    if isinstance(artifact, str):
                        (out / name).write_text(artifact)
                    else:
                        write_json(out / name, artifact)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
