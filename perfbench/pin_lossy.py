"""Pin the digest of the ``verify-lossy`` execution for a range of seeds.

Usage (from the root of a checkout)::

    python3 perfbench/pin_lossy.py 0-63 1000-1015

Writes ``perfbench/pinned_lossy.json``.  ``run.py --workload verify-lossy``
compares its lossy execution with the pinned digest when its seed is in
the table; re-pin only when a change of the lossy semantics is intended.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    from workloads import PINNED_LOSSY, Lossy, lossy_digest

    from repro import FaultModel, execute_plan_with_faults, gossip

    seeds = []
    for arg in argv:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    workload = Lossy(toy=False)
    digests = {}
    for seed in seeds:
        graph = workload.setup(seed)["graph"]
        result = execute_plan_with_faults(
            gossip(graph), FaultModel(seed=seed, drop_rate=workload.DROP_RATE))
        digests[str(seed)] = lossy_digest(result)
    with open(PINNED_LOSSY, "w", encoding="utf-8") as fh:
        json.dump({"workload": "verify-lossy", "digests": digests}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
