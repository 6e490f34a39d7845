"""Measure the benchmark's own steadiness: many seeds, per-metric spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --seeds 10 --sets 2 --out perfbench/STEADINESS.json
    python3 perfbench/steady.py --workloads serve --seeds 5 --sets 1
    python3 perfbench/steady.py --traced --out perfbench/TRACED.json

For every workload, each set runs ``perfbench/run.py`` once per seed
(seeds ``1000 * set + 0 .. seeds - 1``) and reports, for every end-to-end
metric, the median, the quartiles from ``statistics.quantiles(n=4)``, the
spread ``(q3 - q1) / median`` against the metric's bound, and how far the
set's median moved from the first set's.  Each run's host-speed scale and
unscaled work time are kept beside its metrics, so machine drift shows.
``--traced`` instead makes one traced run per workload and reports its
per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"wall_s": wall, "report": report, "result": result}


def summarize(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def traced_report(args) -> int:
    """One ``--trace 1`` run per workload; the per-layer metrics side by side."""
    report = {"seconds": args.seconds, "seed": 0, "workloads": {}}
    for workload in args.workloads:
        run = run_once(workload, 0, args.seconds, trace=1)
        layers = {k: v["value"] for k, v in run["result"]["metrics"].items()}
        report["workloads"][workload] = {
            **layers,
            # Not a metric: host drift between the phases dominates it.
            "report.traced_minus_untraced_s": run["report"]["traced_minus_untraced_s"],
        }
        shown = ", ".join(f"{k}={v:.4g}" for k, v in layers.items() if v)
        print(f"{workload}: {shown}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default="")
    parser.add_argument("--traced", action="store_true",
                        help="one traced run per workload (seed 0): per-layer metrics")
    args = parser.parse_args(argv)
    if args.traced:
        return traced_report(args)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            runs = [run_once(workload, 1000 * k + s, args.seconds) for s in range(args.seeds)]
            metrics = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
                       for name in bounds}
            sets.append({
                "metrics": metrics,
                "host_sample_s": summarize([statistics.fmean(r["report"]["host_speed_samples_s"])
                                            for r in runs]),
                "raw_work_s": summarize([r["report"]["raw_work_s"] for r in runs]),
                "run_wall_s": summarize([r["wall_s"] for r in runs]),
                "runs": [{"host_factor": r["report"]["host_factor"], "wall_s": r["wall_s"],
                          "raw_work_s": r["report"]["raw_work_s"],
                          **{k: v["value"] for k, v in r["result"]["metrics"].items()}}
                         for r in runs],
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
            })
        first = sets[0]["metrics"]
        for entry in sets:
            for name, m in entry["metrics"].items():
                m["shift_vs_set1"] = m["median"] / first[name]["median"] - 1.0
                if name != "setup_s":
                    worst = max(worst, m["spread"] / bounds[name])
        report["workloads"][workload] = sets
        for k, entry in enumerate(sets):
            cells = []
            for name, m in entry["metrics"].items():
                shift = f", {m['shift_vs_set1']:+.1%}" if k else ""
                cells.append(f"{name}={m['median']:.4g} "
                             f"({m['spread']:.1%}/{bounds[name]:.0%}{shift})")
            print(f"{workload} set{k + 1} wall={entry['run_wall_s']['median']:.1f}s "
                  f"host={entry['host_sample_s']['median'] * 1e3:.2f}ms "
                  f"raw_work_s={entry['raw_work_s']['median']:.3g}"
                  f"({entry['raw_work_s']['spread']:.1%}) "
                  + "  ".join(cells), flush=True)
    report["worst_spread_over_bound"] = worst
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
