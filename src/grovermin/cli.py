"""Command-line driver for the search experiments.

Subcommands: ``run <experiment>``, ``brute <experiment>``, and
``ensemble <experiment>``.  Every experiment has a complete built-in
config, so e.g. ``grovermin run gp`` works with no arguments; a JSON
config file and a handful of flags override the defaults.  All output is
deterministic for a fixed (config, seed) pair: traces are JSON with
sorted keys, histograms and distributions are CSV, and nothing
time-dependent is ever written.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import typing
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .baseline import grid_brute_min
from .encoding import BLOCK_ROWS, GridLayout, VariableSpec
from .grover import iterate
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
from .statevector import MarkedSet, dense_reference_operators, phase_flip, uniform_superposition

MINSEARCH_EXPERIMENTS = ("gp", "lj-trimer")

#: Goldstein-Price search window, the same on both axes.
GP_SQUARE = (-3.2, 3.0)


def _variable(name: str, window: tuple[float, float], qubits: int) -> dict:
    return {"name": name, "lo": window[0], "hi": window[1], "qubits": qubits}


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


class ConfigError(ValueError):
    """A config value the CLI refuses itself; like every ValueError, it exits 2."""


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config key {where!r}")
        if not isinstance(out[key], dict):
            out[key] = value
        elif isinstance(value, dict):
            out[key] = _merge(out[key], value, where)
        else:
            raise ConfigError(f"{where} must be an object, got {value!r}")
    return out


def _integer(where: str, value, bits: int | None = None) -> int:
    """``value`` if a JSON integer >= 1 (in [0, 2**bits) given ``bits``); never truncated."""
    if bits is None:
        ok, span = type(value) is int and value >= 1, ">= 1"
    else:
        ok, span = type(value) is int and 0 <= value < 2**bits, f"in [0, 2**{bits})"
    if not ok:
        raise ConfigError(f"{where} must be an integer {span}, got {value!r}")
    return value


def _build(section: str, cls, fields: dict, **extra):
    """``cls(**fields, **extra)``, each ``int`` field checked by ``_integer``, each
    ``bool`` field refused unless JSON true or false, and the TypeError of any
    other wrong JSON type made a ConfigError.  Fields are named
    ``section.field``, or bare for the top-level section ``""``."""
    hints = typing.get_type_hints(cls)
    for name, value in fields.items():
        where = f"{section}.{name}" if section else name
        if hints[name] in (int, int | None) and value is not None:
            _integer(where, value)
        elif hints[name] is bool and type(value) is not bool:
            raise ConfigError(f"{where} must be true or false, got {value!r}")
    try:
        return cls(**fields, **extra)
    except TypeError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def load_config(experiment: str, config_path: str | None) -> dict:
    """Built-in defaults for the experiment, overlaid with the JSON file."""
    if experiment not in DEFAULT_CONFIGS:
        raise ConfigError(f"unknown experiment {experiment!r}; known: {EXPERIMENTS}")
    config = copy.deepcopy(DEFAULT_CONFIGS[experiment])
    if config_path is None:
        return config
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    try:
        overrides = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{config_path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"{config_path}: top level must be an object")
    if overrides.get("experiment", experiment) != experiment:
        raise ConfigError(
            f"{config_path}: config is for experiment "
            f"{overrides['experiment']!r}, not {experiment!r}"
        )
    return _merge(config, overrides)


def build_layout(config: dict) -> GridLayout:
    """The config's grid, refused by ``GridLayout`` past the register cap."""
    if not isinstance(config["layout"], list):
        raise ConfigError(f"layout must be a list of variables, got {config['layout']!r}")
    variables = []
    for i, spec in enumerate(config["layout"]):
        try:
            name, lo, hi, qubits = spec["name"], float(spec["lo"]), float(spec["hi"]), spec["qubits"]
        except (KeyError, TypeError, ValueError) as exc:  # a missing key or a non-number bound
            raise ConfigError(f"layout[{i}]: {exc}") from exc
        variables.append(VariableSpec(name, lo, hi, _integer(f"layout[{i}].qubits", qubits)))
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


def _json_default(obj):
    """The plain Python value written for a numpy array or scalar."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2, default=_json_default)``.

    That call always runs ``json``'s pure-Python encoder (its C encoder is used
    only without ``indent``), one generator per container.  Here each
    container is one ``join``, the common scalars (exact ``float``, ``int``,
    ``str``, ``bool``, ``None``) are written inline in a comprehension, and a
    dict's sorted keys and ``"key": `` prefixes are built once per key set and
    depth, since an ensemble's round dicts all share one key set.  Dict keys
    must be ``str``; any other key raises TypeError.
    """
    # (keys in insertion order, depth) -> (sorted keys, item prefixes)
    layouts: dict[tuple, tuple[list, list[str]]] = {}

    def texts(values, depth: int) -> list[str]:
        # The first five branches repeat encode's tests for the exact types,
        # so a finite float, int, str, bool or None in a container costs no
        # call; anything else, non-finite floats too, goes through encode.
        return [
            repr(v) if (t := type(v)) is float and v - v == 0.0
            else repr(v) if t is int
            else encode_basestring_ascii(v) if t is str
            else ("true" if v else "false") if t is bool
            else "null" if v is None
            else encode(v, depth)
            for v in values
        ]

    def encode(o, depth: int) -> str:
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            if o != o:
                return "NaN"
            if o in (math.inf, -math.inf):
                return "Infinity" if o > 0 else "-Infinity"
            return float.__repr__(o)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            pad = "\n" + "  " * (depth + 1)
            return f"[{pad}{(',' + pad).join(texts(o, depth + 1))}\n{'  ' * depth}]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            keys = tuple(o)
            layout = layouts.get((keys, depth))
            if layout is None:
                for k in keys:
                    if not isinstance(k, str):
                        raise TypeError(f"keys must be str, not {type(k).__name__}")
                order = sorted(keys)
                pad = "\n" + "  " * (depth + 1)
                prefixes = [f",{pad}{encode_basestring_ascii(k)}: " for k in order]
                prefixes[0] = prefixes[0][1:]
                layout = layouts[keys, depth] = (order, prefixes)
            order, prefixes = layout
            items = texts(map(o.__getitem__, order), depth + 1)
            return f"{{{''.join(map(str.__add__, prefixes, items))}\n{'  ' * depth}}}"
        return encode(_json_default(o), depth)

    return encode(obj, 0)


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as sorted-key, two-space-indented JSON (see ``_dumps``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_dumps(obj) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` under ``header``, each cell as ``str`` writes it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def emit_distribution(marked, probabilities, layout: GridLayout, values, path: Path) -> None:
    """Pre-measurement Born-rule distribution, one CSV row per grid index.

    ``marked`` is the round's mask and ``probabilities`` its ``(a, b)`` (see
    ``minsearch.round_states``).  Rows are formatted a ``BLOCK_ROWS`` block at
    a time, column by column, so no text of grid size is ever held.
    """
    texts = (repr(probabilities[1]), repr(probabilities[0]))  # False -> b, True -> a
    header = ["index"] + [v.name for v in layout.variables] + ["value", "probability"]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, layout.size, BLOCK_ROWS):
            idx = np.arange(start, min(start + BLOCK_ROWS, layout.size))
            columns = [
                map(str, idx.tolist()),
                *(map(repr, axis) for axis in layout.decode_batch(idx).T.tolist()),
                map(repr, values[idx].tolist()),
                map(texts.__getitem__, marked[idx].tolist()),
            ]
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def search_result_json(
    result: SearchResult, layout: GridLayout, run_id: int, seed: int, config: dict
) -> dict:
    """A search's JSON trace; its round points are decoded here, in one batch."""
    rounds = result.trace.rounds
    points = layout.decode_batch(np.array([r.index for r in rounds])).tolist()
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
                "point": point,
                "value": r.value,
                "threshold": r.threshold_after,
            }
            for r, point in zip(rounds, points)
        ],
        "best_value": result.best_value,
        "best_index": result.best_index,
        "best_point": list(result.best_point),
        "total_iterations": result.total_iterations,
        "iterations_to_best": result.iterations_to_best,
        "converged": result.converged,
    }


def pivot_result_json(result, run_id: int, seed: int, config: dict) -> dict:
    return {
        "run_id": run_id,
        "seed": seed,
        "experiment": config["experiment"],
        "box": config["box"],
        "qubits": config["qubits"],
        **asdict(result),
    }


def growth_result_json(result, run_id: int, seed: int, config: dict) -> dict:
    stages = []
    for stage in result.stages:
        stages.append(
            {
                "num_atoms": stage.num_atoms,
                "positions": stage.positions,
                "energy": stage.energy,
                "box": stage.box,
                "search_best": stage.search.best_value if stage.search else None,
                "search_generations": stage.search.num_generations if stage.search else None,
                "search_iterations": stage.search.total_iterations if stage.search else None,
                "search_converged": stage.search.converged if stage.search else None,
            }
        )
    return {
        "run_id": run_id,
        "seed": seed,
        "experiment": config["experiment"],
        "method": config["growth"]["method"],
        "stages": stages,
        "final_energy": result.final_energy,
        "final_positions": result.final_positions,
        "total_iterations": result.total_iterations,
    }


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
    after_flip = phase_flip(state, marked)
    final = iterate(state, marked, 1)
    return {
        "layout": [vars(v) for v in layout.variables],
        "grid_points": points,
        "grid_values": values,
        "marked_index": reference.index,
        "marked_point": list(reference.point),
        "uniform": state.amplitudes.real.tolist(),
        "p_s": p_s.tolist(),
        "p_t": p_t.tolist(),
        "after_phase_flip": after_flip.amplitudes.real.tolist(),
        "final": final.amplitudes.real.tolist(),
    }


def _print_matrix(name: str, matrix) -> None:
    print(f"{name} =")
    for row in matrix:
        print("  [" + "  ".join(f"{x:5.2f}" for x in row) + "]")


def cmd_run(args) -> int:
    config = _run_config(args)
    out = Path(args.out) if args.out else None
    experiment = config["experiment"]
    if args.emit_distributions and experiment not in MINSEARCH_EXPERIMENTS:
        raise ConfigError(f"experiment {experiment!r} takes no --emit-distributions")
    if args.emit_distributions and out is None:
        raise ConfigError("--emit-distributions needs --out")

    if experiment == "appendix-demo":
        demo = appendix_demo()
        print("two-qubit demo over the GP corner grid")
        print(f"uniform state     |s> = {demo['uniform']}")
        _print_matrix("P_s", demo["p_s"])
        _print_matrix("P_t", demo["p_t"])
        print(f"marked index {demo['marked_index']} -> point {demo['marked_point']}")
        print(f"P_t|s> = {demo['after_phase_flip']}")
        print(f"G|s>   = {demo['final']}")
        if out is not None:
            write_json(out / "appendix_demo.json", demo)
        return 0

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
            print(
                f"experiment={experiment} run={run_id} "
                f"best={result.best_value!r} point={tuple(result.best_point)} "
                f"rounds={result.num_rounds} total_iterations={result.total_iterations} "
                f"converged={result.converged}"
            )
            if out is not None:
                write_json(
                    out / f"run_{run_id:03d}.json",
                    search_result_json(result, setup.layout, run_id, seed, config),
                )
                if args.emit_distributions:
                    for record, marked, probabilities in round_states(
                        values, setup.layout, result.trace, setup.strict
                    ):
                        path = out / f"dist_run{run_id:03d}_round{record.round:03d}.csv"
                        emit_distribution(marked, probabilities, setup.layout, values, path)
        return 0

    if experiment == "shubert-pivot":
        objective = get_objective(config["objective"])
        pivot_config = _build("pivot", PivotConfig, config["pivot"])
        qubits = _integer("qubits", config["qubits"])
        for run_id, rng in enumerate(rngs):
            result = pivot_grover_search(objective, config["box"], qubits, pivot_config, rng)
            print(
                f"experiment={experiment} run={run_id} "
                f"best={result.best_value!r} point={tuple(result.best_point)} "
                f"generations={result.num_generations} "
                f"total_iterations={result.total_iterations} converged={result.converged}"
            )
            if out is not None:
                write_json(
                    out / f"run_{run_id:03d}.json",
                    pivot_result_json(result, run_id, seed, config),
                )
        return 0

    # lj-grow, the one experiment left
    growth = dict(config["growth"])
    target_atoms = _integer("growth.target_atoms", growth.pop("target_atoms"))
    pivot_config = _build("pivot", PivotConfig, config["pivot"])
    growth_config = _build("growth", GrowthConfig, growth, pivot=pivot_config)
    for run_id, rng in enumerate(rngs):
        result = lj_growth(target_atoms, growth_config, rng)
        for stage in result.stages:
            print(
                f"experiment=lj-grow run={run_id} atoms={stage.num_atoms} "
                f"energy={stage.energy!r}"
            )
        print(
            f"experiment=lj-grow run={run_id} final_energy={result.final_energy!r} "
            f"total_iterations={result.total_iterations}"
        )
        if out is not None:
            write_json(
                out / f"run_{run_id:03d}.json",
                growth_result_json(result, run_id, seed, config),
            )
    return 0


def cmd_brute(args) -> int:
    config = _run_config(args)
    # The scan uses only the objective and layout, but the search sections
    # are checked as ``run`` checks them, so one file is good or bad for both.
    setup = build_setup(config)
    reference = grid_brute_min(setup.objective, setup.layout)
    payload = {"experiment": config["experiment"], **vars(reference)}
    print(json.dumps(payload, sort_keys=True, default=_json_default))
    if args.out:
        write_json(Path(args.out) / "brute.json", payload)
    return 0


def cmd_ensemble(args) -> int:
    config = _run_config(args)
    runs = config["runs"]
    seed = config["seed"]
    setup = build_setup(config)
    stats = run_ensemble(setup, runs, seed)
    print(
        f"experiment={config['experiment']} runs={runs} "
        f"success_fraction={stats.success_fraction!r} "
        f"mean_rounds={stats.mean_rounds!r} median_rounds={stats.median_rounds!r} "
        f"mean_total_iterations={stats.mean_total_iterations!r} "
        f"median_total_iterations={stats.median_total_iterations!r} "
        f"mean_iterations_to_best={stats.mean_iterations_to_best!r}"
    )
    if args.out:
        out = Path(args.out)
        payload = {
            "experiment": config["experiment"],
            "seed": seed,
            "runs": runs,
            "schedule": config["schedule"],
            **{k: v for k, v in vars(stats).items() if k != "results"},
            # String keys, as JSON writes them, so sort_keys orders them as text.
            "rounds_histogram": {str(k): n for k, n in stats.rounds_histogram.items()},
            "runs_detail": [
                search_result_json(result, setup.layout, run_id, seed, config)
                for run_id, result in enumerate(stats.results)
            ],
        }
        write_json(out / "ensemble.json", payload)
        write_csv(
            out / "rounds_histogram.csv",
            ["bin", "count"],
            sorted(stats.rounds_histogram.items()),
        )
    return 0


def _run_config(args) -> dict:
    """Defaults, then the config file, then the flags; seed and runs checked once."""
    config = load_config(args.experiment, args.config)
    for key in ("seed", "runs", "schedule"):
        value = getattr(args, key, None)
        if value is not None:
            if key not in config:
                raise ConfigError(f"experiment {config['experiment']!r} takes no --{key}")
            config[key] = value
    for key, bits in (("seed", 64), ("runs", None)):
        if key in config:
            _integer(key, config[key], bits)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grovermin",
        description="Statevector simulations of amplified minimum search.",
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


def main(argv: list[str] | None = None) -> int:
    """Exit 0 on success and 2 on bad input: any ValueError, raised by the CLI
    or by a library check."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
