"""In-memory spans around grovermin's public functions, and per-layer metrics.

``traced(tracer)`` rebinds each public function under the name the calling
module uses (``minsearch.iterate``, ``pivot.select_pivots``, ``cli.write_json``,
the methods ``Objective.batch`` and ``GridLayout.decode``, ...) to a wrapper
that records one span per call: id, parent id, operation id, name, start and
end in nanoseconds, plus exact work counts read from the arguments or the
result.  The wrappers only observe: they pass arguments and results through
unchanged and draw nothing from any random stream, so a traced search returns
exactly what an untraced one does.  Leaving the context restores every
original binding.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from grovermin import baseline, cli, encoding, minsearch, objectives, pivot

#: Bytes an amplification step touches per amplitude, computed from array
#: sizes rather than measured: mask read (1), mean read (16), and the
#: subtract's read and write (16 + 16).  The masked sign flip's gather and
#: scatter depend on the marked count and are left out.
BYTES_PER_AMP_STEP = 49


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a top-level span
    op: int  # benchmark operation the span belongs to
    name: str
    start: int  # perf_counter_ns
    end: int
    counts: dict | None


def _iterate_counts(args, kwargs, result):
    state, iterations = args[0], args[2]
    return {"amp_steps": iterations * state.size}


def _search_counts(args, kwargs, result):
    rounds = result.trace.rounds
    return {
        "rounds": len(rounds),
        "oracle_calls": result.total_iterations,
        "improving_rounds": sum(1 for r in rounds if r.value < r.threshold_before),
    }


def _batch_counts(args, kwargs, result):
    return {"points": len(result), "objective": args[0].name}


def _decode_batch_counts(args, kwargs, result):
    return {"points": len(result)}


def _pivot_search_counts(args, kwargs, result):
    return {"generations": result.num_generations}


def _select_counts(args, kwargs, result):
    return {"pivots": result.num_pivots, "rejected": result.rejected_draws}


def _write_json_counts(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


#: (owner, attribute, span name, counter).  A function is wrapped once per
#: module that calls it, so the span shows the binding the caller used.
TARGETS = [
    (minsearch, "iterate", "grover.iterate", _iterate_counts),
    (pivot, "iterate", "grover.iterate", _iterate_counts),
    (minsearch, "uniform_superposition", "statevector.uniform_superposition", None),
    (pivot, "uniform_superposition", "statevector.uniform_superposition", None),
    (minsearch, "sample", "statevector.sample", None),
    (minsearch, "MarkedSet", "statevector.MarkedSet", None),
    (pivot, "MarkedSet", "statevector.MarkedSet", None),
    (minsearch, "adapted_grover_min", "minsearch.adapted_grover_min", _search_counts),
    (cli, "adapted_grover_min", "minsearch.adapted_grover_min", _search_counts),
    (minsearch, "run_ensemble", "minsearch.run_ensemble", None),
    (cli, "run_ensemble", "minsearch.run_ensemble", None),
    (encoding.GridLayout, "decode", "encoding.decode", None),
    (encoding.GridLayout, "decode_batch", "encoding.decode_batch", _decode_batch_counts),
    (encoding.GridLayout, "all_points", "encoding.all_points", None),
    (objectives.Objective, "batch", "objectives.batch", _batch_counts),
    (pivot, "generate_probes", "pivot.generate_probes", None),
    (pivot, "select_pivots", "pivot.select_pivots", _select_counts),
    (pivot, "boltzmann_weights", "pivot.boltzmann_weights", None),
    (pivot, "resample", "pivot.resample", None),
    (pivot, "pivot_grover_search", "pivot.pivot_grover_search", _pivot_search_counts),
    (pivot, "lj_growth", "pivot.lj_growth", None),
    (baseline, "grid_brute_min", "baseline.grid_brute_min", None),
    (cli, "grid_brute_min", "baseline.grid_brute_min", None),
    (cli, "main", "cli.main", None),
    (cli, "write_json", "cli.write_json", _write_json_counts),
]


class Tracer:
    """Collects spans in memory; ``op`` tags every span with the current operation."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, counter):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[span_id] = Span(span_id, parent, self.op, name, start, end, None)
            if counter is not None:
                self.spans[span_id] = self.spans[span_id]._replace(
                    counts=counter(args, kwargs, result)
                )
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """One CSV line per span, in the order the spans started."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.parent},{s.op},{s.name},{s.start},{s.end}\n")


@contextmanager
def traced(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.id] = s.end - s.start - covered
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


#: Objectives whose per-point batch cost is reported by name.
OBJECTIVE_NAMES = ("gp", "shubert", "lj-trimer", "lj-grow-yz")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and self times; a layer that never ran reads 0."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    layer_ns = defaultdict(int)
    counts = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += own[s.id]
        layer_ns[s.name.split(".", 1)[0]] += own[s.id]
        if s.counts:
            for key, value in s.counts.items():
                if key == "objective":
                    counts[f"{value}.points"] += s.counts["points"]
                    counts[f"{value}.self_ns"] += own[s.id]
                else:
                    counts[f"{s.name}.{key}"] += value

    def sec(ns):
        return ns / 1e9

    amp_steps = counts["grover.iterate.amp_steps"]
    rounds = counts["minsearch.adapted_grover_min.rounds"]
    pivots = counts["pivot.select_pivots.pivots"]
    m = {
        "grover.iterate.calls": calls["grover.iterate"],
        "grover.iterate.amp_steps": amp_steps,
        "grover.iterate.self_s": sec(self_ns["grover.iterate"]),
        "grover.iterate.ns_per_amp_step": _ratio(self_ns["grover.iterate"], amp_steps),
        "grover.iterate.bytes_computed": amp_steps * BYTES_PER_AMP_STEP,
        "statevector.sample.calls": calls["statevector.sample"],
        "statevector.sample.self_s": sec(self_ns["statevector.sample"]),
        "statevector.uniform_superposition.calls": calls["statevector.uniform_superposition"],
        "statevector.uniform_superposition.self_s": sec(
            self_ns["statevector.uniform_superposition"]
        ),
        "statevector.MarkedSet.self_s": sec(self_ns["statevector.MarkedSet"]),
        "minsearch.searches": calls["minsearch.adapted_grover_min"],
        "minsearch.rounds": rounds,
        "minsearch.oracle_calls": counts["minsearch.adapted_grover_min.oracle_calls"],
        "minsearch.self_s": sec(layer_ns["minsearch"]),
        "minsearch.self_us_per_round": _ratio(layer_ns["minsearch"] / 1e3, rounds),
        "minsearch.improving_round_ratio": _ratio(
            counts["minsearch.adapted_grover_min.improving_rounds"], rounds
        ),
        "encoding.decode.calls": calls["encoding.decode"],
        "encoding.decode.self_s": sec(self_ns["encoding.decode"]),
        "encoding.decode_batch.points": counts["encoding.decode_batch.points"],
        "encoding.decode_batch.self_s": sec(self_ns["encoding.decode_batch"]),
        "objectives.batch.calls": calls["objectives.batch"],
        "objectives.batch.points": counts["objectives.batch.points"],
        "objectives.batch.self_s": sec(self_ns["objectives.batch"]),
    }
    for n in OBJECTIVE_NAMES:
        m[f"objectives.{n}.ns_per_point"] = _ratio(counts[f"{n}.self_ns"], counts[f"{n}.points"])
    m.update(
        {
            "pivot.generations": counts["pivot.pivot_grover_search.generations"],
            "pivot.select_pivots.calls": calls["pivot.select_pivots"],
            "pivot.select_pivots.self_s": sec(self_ns["pivot.select_pivots"]),
            "pivot.resample.self_s": sec(self_ns["pivot.resample"]),
            "pivot.boltzmann_weights.self_s": sec(self_ns["pivot.boltzmann_weights"]),
            "pivot.generate_probes.self_s": sec(self_ns["pivot.generate_probes"]),
            "pivot.self_s": sec(layer_ns["pivot"]),
            "pivot.accepted_draw_ratio": _ratio(
                pivots, pivots + counts["pivot.select_pivots.rejected"]
            ),
            "baseline.grid_brute_min.calls": calls["baseline.grid_brute_min"],
            "baseline.grid_brute_min.self_s": sec(self_ns["baseline.grid_brute_min"]),
            "cli.self_s": sec(layer_ns["cli"]),
            "cli.write_json.calls": calls["cli.write_json"],
            "cli.write_json.bytes": counts["cli.write_json.bytes"],
            "cli.write_json.self_s": sec(self_ns["cli.write_json"]),
        }
    )
    return m


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_amp_step") or name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("us_per_round"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    return "count"
