"""Run the benchmark over ten seeds and summarise it, optionally as a trajectory point.

    python3 perfbench/record.py [--traced] [--label TEXT]

Runs ``perfbench/run.py`` on every workload of BENCHMARK.json with seeds 0
to 9, one process at a time, with its ``run_seconds``.  For every
end-to-end metric it prints the median over the seeds and the spread, the
distance between the first and third quartile as a share of the median,
next to the metric's bound; it exits 1 if a run is incorrect or a spread
exceeds its bound.  ``--traced`` adds one traced run per workload on seed
0, for the per-layer metrics and the tracing overhead.  ``--label`` appends
the summary to ``perfbench/trajectory.json`` under that label.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result object and the ``info:`` record of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(l[len("info: "):]) for l in lines if l.startswith("info: "))
    return json.loads(lines[-1]), info


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median, quartiles as ``statistics.quantiles`` gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, after_setup = [], []
        for seed in SEEDS:
            result, info = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
                ok = False
            runs.append(info["metrics"])
            after_setup.append(info["peak_rss_after_setup_mib"])
        entry = {"seeds": [SEEDS[0], SEEDS[-1]], "machine": info["machine"], "end_to_end": {},
                 "peak_rss_after_setup_mib": statistics.median(after_setup)}
        print(f"{workload}: {len(SEEDS)} seeds")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med, spr = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spr < bound / 3 else ("within bound" if spr <= bound else "TOO WIDE")
                ok &= spr <= bound
            entry["end_to_end"][name] = {"median": med, "spread": spr, "values": values}
            print(f"  {name:22s} median {med:14.6g}  spread {spr:7.4f}"
                  + (f"  bound {bound}  {flag}" if bound is not None else "  (not gated)"))
        if args.traced:
            result, info = run_once(workload, SEEDS[0], seconds, 1)
            entry["traced"] = {
                "seed": SEEDS[0],
                "correct": result["correct"],
                "results_identical": info["traced_results_identical"],
                **{k: v for k, v in info.items() if k.startswith(("untraced_", "traced_wall", "tracing_"))},
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            }
            ok &= result["correct"]
            print(f"  traced: overhead {info['tracing_overhead_s']:+.4f} s on "
                  f"{info['untraced_wall_s']:.4f} s, per pass {info['tracing_overhead_pair_p50']:+.2%} "
                  f"(IQR {info['tracing_overhead_pair_iqr']:.2%} over {info['tracing_overhead_pairs']} "
                  f"pairs), identical results: {info['traced_results_identical']}")
        summary[workload] = entry

    if args.label:
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        points.append({"label": args.label, "run_seconds": seconds, "workloads": summary})
        TRAJECTORY.write_text(json.dumps(points, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
