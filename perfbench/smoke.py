"""The benchmark's own smoke test.

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

1. Runs every workload at toy size, untraced and traced, and checks that
   each prints exactly the metric names and units of ``BENCHMARK.json``.
2. Feeds corrupted outputs to the output checks (a schedule with one
   delivery removed, a lossy result missing one delivery, a wrong
   model-checker count, a transcript that differs from the offline
   schedule) and checks that each is caught.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   ``perfbench/`` and checks that it exits non-zero without a result.

Every run is started in a process group of its own, and fails the smoke
test if any process of that group is still there once the run has exited.

Exits 0 when every step passes.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    with subprocess.Popen([sys.executable] + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=180)
        finally:
            leftover = True
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                leftover = False
            if leftover:
                os.killpg(proc.pid, signal.SIGKILL)
    assert not leftover, (args, "a process of the run outlived it")
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def check_toy_runs(spec: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for w in spec["workloads"]:
            proc = run([os.path.join(HERE, "run.py"), "--workload", w["name"], "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), "--toy"])
            assert proc.returncode == 0, (w["name"], trace, proc.stdout[-800:], proc.stderr[-800:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            print(f"ok  toy {w['name']} trace={trace}", flush=True)


def check_corruptions() -> None:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as wl
    from harness import CheckFailed, HostSpeed, Tracer

    from repro import FaultModel, execute_plan_with_faults, gossip, topologies

    graph = topologies.grid_2d(3, 3)
    plan = gossip(graph)
    layers = {k: [] for k in ("mem.peak_after_execute_mb", "mem.peak_after_lint_mb",
                              "lint.errors")}
    assert wl.verify_plan(graph, plan, Tracer(), layers, HostSpeed())[0] is None
    try:
        why, _ = wl.verify_plan(graph, wl.drop_one_delivery(plan), Tracer(), layers,
                                HostSpeed())
    except Exception as exc:  # the engine refuses an incomplete gossip by raising
        why = type(exc).__name__
    assert why is not None, "a schedule missing one delivery passed the verify check"
    print(f"ok  verify catches a removed delivery ({why})")

    def lossy_run(lossy, seed):
        state = lossy.setup(seed)
        model = FaultModel(seed=seed, drop_rate=lossy.DROP_RATE)
        return state, execute_plan_with_faults(gossip(state["graph"]), model)

    lossy = wl.Lossy(toy=False)
    state, result = lossy_run(lossy, 0)
    lossy.check(state, wl.Work(outputs={"digests": [wl.lossy_digest(result)]}))
    print("ok  verify-lossy seed 0 matches both the reference replay and its pin")
    lossy = wl.Lossy(toy=True)
    state, result = lossy_run(lossy, 5000)  # no pin for this seed
    lossy.check(state, wl.Work(outputs={"digests": [wl.lossy_digest(result)]}))
    gained = result.final_holds[0] & ~result.initial_holds[0]
    result.final_holds[0] &= ~(gained & -gained)  # one delivery the engine "lost"
    try:
        lossy.check(state, wl.Work(outputs={"digests": [wl.lossy_digest(result)]}))
    except CheckFailed:
        print("ok  verify-lossy catches a lost delivery on an unpinned seed")
    else:
        raise AssertionError("a lossy result missing a delivery passed the replay check")

    mc = wl.ModelCheck(toy=True)
    state = mc.setup(0)
    work = mc.work(state, Tracer(), 1, HostSpeed())
    mc.check(state, work)
    key, summary = work.outputs["results"][0]
    work.outputs["results"][0] = (key, dict(summary, states=summary["states"] - 1))
    try:
        mc.check(state, work)
    except CheckFailed:
        print("ok  model-check catches a state count that differs from CHECK_protocol.json")
    else:
        raise AssertionError("a wrong state count passed the model-check check")

    class Shifted:
        complete, coverage = True, 1.0

        def deterministic_summary(self):
            rows = [(t + 1, s, m, d) for t, s, m, d in wl.offline_multiset(plan)]
            return {"transcript": rows}

    assert wl._check_offline_exact(Shifted(), plan) is not None
    print("ok  peers catch a transcript that differs from the offline schedule")


def check_bare_directory() -> None:
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["perfbench/run.py", "--workload", "serve", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print(f"ok  bare directory exits {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_corruptions()
    check_bare_directory()
    check_toy_runs(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
