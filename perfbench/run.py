"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload verify-deep --seed 3 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout this file sits in,
never from anywhere else; without it the run exits with code 2 and prints
no result.  With ``--trace 0`` the metrics are the end-to-end ones named in
``BENCHMARK.json``; with ``--trace 1`` the run repeats its work with spans
on and prints the per-layer metrics instead.  A failed output check makes
``correct`` false and the exit code 1.  Spans of a traced run are written
to ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: ``setup_s`` is the median of SETUP_SAMPLES samples; each sample is the
#: mean time of back-to-back set-ups filling SETUP_WINDOW_S seconds, so
#: one sample spans many of the host's sub-second speed swings.
SETUP_SAMPLES = 5
SETUP_WINDOW_S = 0.5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_package() -> float:
    """Import ``repro`` from this checkout's ``src``; return the seconds taken."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise ImportError(f"no package source under {src}")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import repro

    seconds = time.perf_counter() - start
    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"repro was imported from {repro.__file__}, not {src}")
    return seconds


def setup_samples(workload, seed: int, speed):
    """Time the workload's set-up: the first call, then the windowed samples.

    The host speed is sampled around every window; the samples are scaled
    by the setup phase's :meth:`HostSpeed.factor`.
    """
    start = time.perf_counter()
    workload.setup(seed)
    first = time.perf_counter() - start
    mark = len(speed.samples)
    samples = []
    for _ in range(SETUP_SAMPLES):
        speed.sample()
        count, start = 0, time.perf_counter()
        while True:
            workload.setup(seed)
            count += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SETUP_WINDOW_S:
                break
        samples.append(elapsed / count)
    speed.sample()
    factor = speed.factor(since=mark)
    return first, [s * factor for s in samples]


def end_to_end(work, work_s: float, setups, peak_mb: float, factor: float) -> dict:
    """The end-to-end metrics.

    ``factor`` scales the work time to the reference host speed; scaled
    workloads already scaled each latency by its own samples.
    """
    from harness import percentile

    latencies = work.latencies or [math.inf]
    done = work.attempted - work.failed
    work_s *= factor
    return {
        "setup_s": statistics.median(setups),
        "work_s": work_s,
        "peak_rss_mb": peak_mb,
        "ops_per_s": done / work_s if work_s else 0.0,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
    }


def stop_child_processes(grace_s: float = 5.0) -> None:
    """Stop every process this run started, and wait until each has ended.

    Only the ``peers-proc`` workload starts processes: the peers, which the
    supervisor reaps itself, and the resource tracker that the spawn start
    method launches on first use.  Left alone, the tracker outlives the run
    by the moment it takes to notice the benchmark has exited.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    for child in multiprocessing.active_children():
        child.join(grace_s)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs (the smoke test)")
    args = parser.parse_args(argv)

    spec = load_spec()
    sys.path.insert(0, HERE)
    from harness import CheckFailed, HostSpeed, Tracer, host_fingerprint, peak_rss_mb

    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.toy)

    speed = HostSpeed()
    first_setup_s, setups = setup_samples(workload, args.seed, speed)
    state = workload.setup(args.seed)

    mark = len(speed.samples)
    work, work_s = speed.timed(workload.work, state, Tracer(enabled=False), args.seconds, speed)
    speed.sample()
    factor = speed.factor(since=mark) if workload.SCALED else 1.0
    problems = list(work.failures)
    try:
        workload.check(state, work)
    except CheckFailed as exc:
        work.failed += 1
        problems.append(f"check: {exc}")
    metrics = end_to_end(work, work_s, setups, peak_rss_mb(), factor)

    traced_minus_untraced_s = None
    if args.trace:
        # Same work again, same code, with spans on, from a fresh set-up.
        state = workload.setup(args.seed)
        tracer = Tracer(enabled=True)
        mark = len(speed.samples)
        traced, traced_s = speed.timed(workload.work, state, tracer, args.seconds, speed)
        speed.sample()
        traced_factor = speed.factor(since=mark) if workload.SCALED else 1.0
        # Each phase at its own host speed; drift still moves this, so the
        # metric is the span-attributable time below.
        traced_minus_untraced_s = traced_s * traced_factor - work_s * factor
        problems.extend(traced.failures)
        try:
            workload.check(state, traced)
        except CheckFailed as exc:
            traced.failed += 1
            problems.append(f"check (traced): {exc}")
        # Peak RSS only grows, so the memory layers come from the untraced
        # phase, which ran first in this process.
        layers = {**traced.layers,
                  **{k: v for k, v in work.layers.items() if k.startswith("mem.")}}
        for layer, seconds in tracer.self_time_by_layer().items():
            layers[f"{layer}.self_s"] = seconds
        layers.update({
            "import.repro_s": import_s,
            "host.calib_s": statistics.fmean(speed.samples),
            "trace.overhead_s": tracer.overhead_s(),
            "setup.first_s": first_setup_s,
            "ops.samples": len(traced.latencies),
        })
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_jsonl(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl"))
        work.attempted += traced.attempted
        work.failed += traced.failed
        # Layers a workload never calls read 0.
        metrics = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: metrics[name] for name in units}

    correct = not problems
    report = {k: v for k, v in work.outputs.items() if isinstance(v, (str, int, float))}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "host": host_fingerprint(),
        "host_speed_samples_s": speed.samples, "host_factor": factor,
        "raw_work_s": work_s, "import_s": import_s, "setup_samples_s": setups,
        "traced_minus_untraced_s": traced_minus_untraced_s,
        "latency_samples": len(work.latencies), "problems": problems,
        "failed_share": work.failed / max(1, work.attempted),
        **report,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated run unwinds too, so its children are stopped below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        sys.exit(main())
    finally:
        stop_child_processes()
