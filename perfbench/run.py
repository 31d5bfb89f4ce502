"""Benchmark runner for grovermin.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a grovermin source tree; the package is imported from
its ``src/``.  With ``--trace 0`` the workload's passes run in a closed loop
(each operation starts when the previous one ends) until ``--seconds`` have
passed and at least the workload's fixed passes are done, and every
end-to-end metric is printed.  Metrics cover the fixed passes only, so they
describe the same work however fast the program runs; passes past them keep
the loop busy for ``--seconds`` and are still checked.  ``setup_s`` is the
median of several set-ups, each in a fresh process, spread over the run.
The time metrics are calibrated for the host's speed with a reference
kernel timed around each operation and set-up (``reference.py``); the
measured times are printed beside them as ``*_raw_s``.
With ``--trace 1`` one warm-up pass runs first, then each fixed pass runs
once untraced and once under the span wrappers, in alternating order.  The
per-layer metrics come from the traced copies, the tracing overhead from
the paired differences, and the two copies must return identical results.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# One BLAS/OpenMP thread: the benchmark is a single closed-loop process and
# its load must stay within the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Set-ups timed per run; they are spread evenly over the fixed passes.
SETUP_SAMPLES = 7


@dataclass
class OpRecord:
    pass_index: int
    kind: str
    seconds: float
    outcome: object  # workloads.Outcome, or None when the call raised
    error: str | None
    reference_s: float | None = None  # mean reference-kernel time before and after the call


def run_pass(workload, seed, p, tracer=None, reference=None):
    """One pass: each operation timed, then checked outside the timed region.

    With a ``reference``, its kernel is timed before the first operation and
    after each one, and every record carries the mean of the two around it.
    """
    from spans import traced

    records = []
    ref_before = reference.time() if reference else None
    for kind, call in workload.ops(seed, p):
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            with traced(tracer) if tracer is not None else nullcontext():
                result = call()
            elapsed = time.perf_counter() - t0
            outcome = workload.check(kind, result)
        except Exception as exc:  # a raising operation counts as failed; the loop goes on
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = "; ".join(outcome.problems) or None
            if error:
                print(f"{workload.name} pass {p} {kind}: {error}", file=sys.stderr)
        ref_s = None
        if reference:
            ref_after = reference.time()
            ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
        records.append(OpRecord(p, kind, elapsed, outcome, error, ref_s))
    return records


def run_passes(workload, seed, passes, seconds=0.0, reference=None, before=None):
    """Closed loop over passes until ``passes`` are done and ``seconds`` have passed.

    ``before(p)``, if given, is called before each fixed pass ``p`` and once
    after the last of them (``p == passes``).
    """
    records = []
    start = time.perf_counter()
    p = 0
    while True:
        if before is not None and p <= passes:
            before(p)
        if p >= passes and time.perf_counter() - start >= seconds:
            return records
        records += run_pass(workload, seed, p, reference=reference)
        p += 1


def time_setup(name: str, reference) -> tuple[float, float]:
    """Seconds from starting a fresh process to the end of the workload's set-up in it.

    Returns them with the mean time of the ``reference`` kernel before and after.
    """
    ref_before = reference.time()
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), name],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up of {name} in a fresh process failed (exit {proc.returncode})")
    return elapsed, (ref_before + reference.time()) / 2


def run_traced(workload, seed, tracer):
    """A warm-up pass, then every fixed pass untraced and traced, alternating which goes first.

    Returns the warm-up records, the untraced and traced records, and each
    pair's relative time difference (traced minus untraced, over untraced).
    """
    warm_up = run_pass(workload, seed, 0)
    plain, under, diffs = [], [], []
    for p in range(workload.fixed_passes):
        pair = {}
        for with_spans in (False, True) if p % 2 == 0 else (True, False):
            pair[with_spans] = run_pass(workload, seed, p, tracer if with_spans else None)
        plain += pair[False]
        under += pair[True]
        t_plain, t_traced = (sum(r.seconds for r in pair[k]) for k in (False, True))
        diffs.append((t_traced - t_plain) / t_plain)
    return warm_up, plain, under, diffs


def quality(records) -> dict:
    """Counts and result quality over the given operations (failed ones excluded)."""
    ok = [r.outcome for r in records if r.error is None]
    gaps = [g for o in ok for g in o.gaps]
    return {
        "oracle_calls_per_op": statistics.fmean(o.oracle_calls for o in ok) if ok else 0.0,
        "success_fraction": sum(o.successes for o in ok) / len(gaps) if gaps else 0.0,
        "best_gap.p50": statistics.median(gaps) if gaps else 0.0,
        "searches": len(gaps),
    }


def machine_info(workload) -> dict:
    import numpy

    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = sorted(
            (int((d / "level").read_text()), (d / "size").read_text().strip())
            for d in cache.glob("index*")
        )
        llc = levels[-1][1] if levels else None
    except (OSError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "last_level_cache": llc,
        "largest_array_bytes_computed": workload.largest_array_bytes,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "grovermin" / "__init__.py").is_file():
        print(f"perfbench: no grovermin sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs SRC on the path)
    from reference import SETUP_REFERENCE

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](OUT)
    workload.setup()
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "machine": machine_info(workload), "peak_rss_after_setup_mib": peak_rss_mib()}
    if args.trace:
        from spans import Tracer, layer_metrics, layer_unit

        tracer = Tracer()
        warm_up, plain, under_trace, diffs = run_traced(workload, args.seed, tracer)
        records = warm_up + plain + under_trace
        identical = [r.outcome and r.outcome.fingerprint for r in plain] == [
            r.outcome and r.outcome.fingerprint for r in under_trace
        ]
        wall_plain = sum(r.seconds for r in plain)
        wall_traced = sum(r.seconds for r in under_trace)
        median = statistics.median(diffs)
        iqr = 0.0
        if len(diffs) > 1:
            q1, _, q3 = statistics.quantiles(diffs, n=4)
            iqr = q3 - q1
        resolved = abs(median) > iqr
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.csv")
        layers = layer_metrics(tracer.spans)
        info.update(
            untraced_wall_s=wall_plain,
            traced_wall_s=wall_traced,
            tracing_overhead_s=wall_traced - wall_plain,
            tracing_overhead_pair_p50=median,
            tracing_overhead_pair_iqr=iqr,
            tracing_overhead_pairs=len(diffs),
            tracing_overhead_resolved=resolved,
            traced_results_identical=identical,
            spans=len(tracer.spans),
        )
        print(f"{workload.name}: untraced wall_s {wall_plain:.4f} s, traced {wall_traced:.4f} s, "
              f"overhead {wall_traced - wall_plain:+.4f} s over {len(tracer.spans)} spans; "
              f"per pass {median:+.2%} (median of {len(diffs)} pairs, IQR {iqr:.2%}), "
              + ("above" if resolved else "within") + " the noise; "
              f"traced results identical: {identical}")
        for name, value in layers.items():
            print(f"  {name:44s} {value:>16.6g} {layer_unit(name)}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        identical = True
        setups = []
        at = [round(i * workload.fixed_passes / (SETUP_SAMPLES - 1)) for i in range(SETUP_SAMPLES)]

        def sample_setups(p):
            setups.extend(time_setup(workload.name, SETUP_REFERENCE) for _ in range(at.count(p)))

        records = run_passes(workload, args.seed, workload.fixed_passes, args.seconds,
                             reference=workload.calibration, before=sample_setups)
        fixed = [r for r in records if r.pass_index < workload.fixed_passes]
        ops = workload.calibration.calibrate([r.seconds for r in fixed], [r.reference_s for r in fixed])
        setup = SETUP_REFERENCE.calibrate(*zip(*setups))
        q = quality(fixed)
        e2e = {
            "wall_s": (sum(ops), "s"),
            "op_s.p50": (statistics.median(ops), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "wall_raw_s": (sum(r.seconds for r in fixed), "s"),
            "op_raw_s.p50": (statistics.median(r.seconds for r in fixed), "s"),
            "setup_raw_s": (statistics.median(s for s, _ in setups), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
            "oracle_calls_per_op": (q["oracle_calls_per_op"], "count"),
            "success_fraction": (q["success_fraction"], "ratio"),
            "best_gap.p50": (q["best_gap.p50"], "objective"),
            "failed_fraction": (sum(1 for r in records if r.error) / len(records), "ratio"),
        }
        info.update(ops=len(records), fixed_ops=len(fixed), searches=q["searches"],
                    setup_samples=setups, metrics={k: v for k, (v, _) in e2e.items()})
        print(f"{workload.name} seed={args.seed}: {len(records)} operations, "
              f"{len(fixed)} in the fixed passes, {q['searches']} searches")
        for name, (value, unit) in e2e.items():
            note = {"op_s.p50": f"  (n={len(fixed)})", "setup_s": f"  (median of {len(setups)})",
                    "wall_s": "  (calibrated)"}
            print(f"  {name:22s} {value:>16.6g} {unit}{note.get(name, '')}")
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    print("info: " + json.dumps(info, sort_keys=True))
    failed = sum(1 for r in records if r.error)
    result = {
        "correct": failed == 0 and identical,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
