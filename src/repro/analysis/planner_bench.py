"""Planner benchmark: pruned + batched sweep vs the paper's O(mn) sweep.

The preprocessing stage — n BFS traversals to find a minimum-height
spanning tree (Section 3.1) — dominates end-to-end planning cost.  This
module measures the fast path that replaced it:

* **correctness gate** — the pruned + batched sweep must return a tree
  *bit-identical* (same root, same parent array, same child order) to
  the exhaustive reference on every benchmarked network;
* **speedup gate** — on ``grid:400``-class graphs the pruned sweep must
  be at least :data:`MIN_SPEEDUP`× faster than the exhaustive sweep;
* **cold-plan gate** — on the same gate networks the *whole* cold plan
  (sweep + labeling + array-native ConcurrentUpDown) must stay within
  :data:`COLD_MAX_RATIO`× of the pruned sweep alone, i.e. the post-tree
  planning path may not regress back towards the seed's per-transmission
  object construction (1.9–3.4 s on ``grid:400``; now ~30 ms);
* **schedule-identity gate** — the array pipeline must emit
  round-for-round bit-identical schedules to the seed builder on all
  21 topology families;
* **trajectory** — results serialise to ``BENCH_planner.json`` at the
  repo root so successive PRs can compare cold-plan latency.

Entry points: :func:`run_planner_bench` (library),
``benchmarks/bench_planner.py`` (standalone + pytest) and
``python -m repro.cli plan-bench`` (by hand), all sharing this code the
same way the chaos sweep shares :mod:`repro.analysis.chaos`.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.gossip import gossip, resolve_network
from ..exceptions import ReproError
from ..networks.spanning_tree import minimum_depth_spanning_tree

__all__ = [
    "PlannerCell",
    "PlannerBenchReport",
    "run_planner_bench",
    "DEFAULT_SPECS",
    "QUICK_SPECS",
    "GATE_FAMILY",
    "MIN_SPEEDUP",
    "COLD_MAX_RATIO",
    "IDENTITY_SWEEP_N",
]

#: The acceptance-criteria network class: the speedup gate is enforced on
#: every benchmarked spec of this family with at least this many vertices.
GATE_FAMILY = "grid"
GATE_MIN_N = 400

#: Required cold-sweep speedup (pruned vs exhaustive) on gate networks.
MIN_SPEEDUP = 3.0

#: Maximum allowed ``plan_cold_s / pruned_s``, enforced on the
#: acceptance-criteria cell only (``grid`` at exactly ``GATE_MIN_N``
#: vertices) — larger gate-family cells report but don't gate the ratio,
#: since the bit-parallel sweep scales better with n than schedule
#: construction can.  The seed object pipeline sat at 200–300x (1.9–3.4 s
#: against a ~10 ms sweep on ``grid:400``); the array-native pipeline
#: lands at ~2.6–3.0x on this hardware.  The enforced bar carries
#: head-room for shared-container timer noise (single runs have been
#: observed 30–40% apart); the true measured ratio is recorded per cell
#: in ``BENCH_planner.json`` so the trajectory — and any future
#: tightening towards 2x — stays visible.
COLD_MAX_RATIO = 4.0

#: Size class for the all-families schedule-identity sweep (families with
#: structural size constraints round up, e.g. hypercube -> 32).
IDENTITY_SWEEP_N = 24

#: The default sweep: one shallow/deep/structured mix per size class.
DEFAULT_SPECS: Tuple[str, ...] = (
    "path:256",
    "cycle:256",
    "star:256",
    "grid:400",
    "grid:1024",
    "torus:400",
    "hypercube:256",
    "random:512",
    "gnp:512",
    "geometric:256",
)

#: The tier-1 subset (``--quick``): small enough for CI, still crossing
#: the gate spec.
QUICK_SPECS: Tuple[str, ...] = (
    "path:256",
    "cycle:128",
    "grid:400",
    "torus:256",
    "random:256",
)


@dataclass(frozen=True)
class PlannerCell:
    """One benchmarked network: timings and the identical-tree verdict."""

    spec: str
    family: str
    n: int
    m: int
    radius: int
    exhaustive_s: float
    pruned_s: float
    speedup: float
    plan_cold_s: float
    cold_ratio: float
    identical: bool
    gated: bool
    cold_gated: bool


class PlannerBenchReport:
    """Cells plus the gates and serialisation the trajectory needs."""

    def __init__(
        self,
        cells: Sequence[PlannerCell],
        *,
        min_speedup: float,
        cold_max_ratio: float = COLD_MAX_RATIO,
        schedule_identity: Optional[Dict[str, bool]] = None,
    ) -> None:
        self.cells = list(cells)
        self.min_speedup = min_speedup
        self.cold_max_ratio = cold_max_ratio
        self.schedule_identity = dict(schedule_identity or {})

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Raise ``AssertionError`` unless every gate holds.

        * every cell's pruned tree is bit-identical to the exhaustive one;
        * every gate cell (``grid`` with n >= 400) meets the speedup bar;
        * the acceptance-criteria cell (``grid`` at exactly n = 400) meets
          the cold-plan ratio bar — larger grids are reported but not
          gated, because the bit-parallel sweep scales better with n than
          schedule construction can (the ratio drifts up even as absolute
          cold-plan time stays tens of milliseconds);
        * the array pipeline's schedules are round-for-round identical to
          the seed builder on every swept family.
        """
        for cell in self.cells:
            assert cell.identical, (
                f"{cell.spec}: pruned sweep tree differs from the exhaustive sweep"
            )
        gated = [c for c in self.cells if c.gated]
        assert gated, (
            f"no gate network ({GATE_FAMILY} with n >= {GATE_MIN_N}) was benchmarked"
        )
        for cell in gated:
            assert cell.speedup >= self.min_speedup, (
                f"{cell.spec}: pruned sweep speedup {cell.speedup:.1f}x is below "
                f"the {self.min_speedup:.1f}x gate "
                f"(exhaustive {cell.exhaustive_s * 1e3:.1f}ms, "
                f"pruned {cell.pruned_s * 1e3:.1f}ms)"
            )
        for cell in (c for c in self.cells if c.cold_gated):
            assert cell.cold_ratio <= self.cold_max_ratio, (
                f"{cell.spec}: cold plan at {cell.cold_ratio:.2f}x the pruned "
                f"sweep exceeds the {self.cold_max_ratio:.1f}x gate "
                f"(plan {cell.plan_cold_s * 1e3:.1f}ms, "
                f"sweep {cell.pruned_s * 1e3:.1f}ms)"
            )
        mismatched = sorted(
            fam for fam, same in self.schedule_identity.items() if not same
        )
        assert not mismatched, (
            "array pipeline schedule differs from the seed builder on: "
            + ", ".join(mismatched)
        )

    # ------------------------------------------------------------------
    def format(self) -> str:
        """Fixed-width table of every cell (timings in milliseconds)."""
        header = (
            f"{'network':<16} {'n':>5} {'m':>6} {'r':>4} "
            f"{'exhaustive':>11} {'pruned':>8} {'speedup':>8} "
            f"{'cold plan':>10} {'ratio':>7} {'identical':>9}"
        )
        lines = [header, "-" * len(header)]
        for c in self.cells:
            gate_mark = "*" if c.gated else " "
            cold_mark = "*" if c.cold_gated else " "
            lines.append(
                f"{c.spec:<16} {c.n:>5} {c.m:>6} {c.radius:>4} "
                f"{c.exhaustive_s * 1e3:>9.1f}ms {c.pruned_s * 1e3:>6.1f}ms "
                f"{c.speedup:>6.1f}x{gate_mark} "
                f"{c.plan_cold_s * 1e3:>8.1f}ms {c.cold_ratio:>5.2f}x{cold_mark} "
                f"{'yes' if c.identical else 'NO':>9}"
            )
        lines.append(
            f"(* = {self.min_speedup:.0f}x speedup / "
            f"{self.cold_max_ratio:.0f}x cold-plan gates apply)"
        )
        if self.schedule_identity:
            bad = sorted(f for f, ok in self.schedule_identity.items() if not ok)
            lines.append(
                f"schedule identity (array vs seed builder, "
                f"{len(self.schedule_identity)} families): "
                + ("all identical" if not bad else "MISMATCH: " + ", ".join(bad))
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """Machine-readable form written to ``BENCH_planner.json``."""
        return {
            "benchmark": "planner",
            "gate": {
                "family": GATE_FAMILY,
                "min_n": GATE_MIN_N,
                "min_speedup": self.min_speedup,
            },
            "cold_gate": {
                "max_ratio": self.cold_max_ratio,
                "enforced": [c.spec for c in self.cells if c.cold_gated],
                "measured": {
                    c.spec: round(c.cold_ratio, 3) for c in self.cells if c.gated
                },
                "schedule_identity": {
                    "families": len(self.schedule_identity),
                    "identical": all(self.schedule_identity.values()),
                },
            },
            "cells": [asdict(c) for c in self.cells],
        }

    def write_json(self, path) -> None:
        """Persist the trajectory artefact (indented, trailing newline)."""
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def _best_of(fn, repeats: int) -> Tuple[float, object]:
    """Minimum wall-clock over ``repeats`` runs, with the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _schedule_identity_sweep(n: int = IDENTITY_SWEEP_N) -> Dict[str, bool]:
    """Array pipeline vs seed builder, round for round, on every family.

    Returns ``{family: identical}`` for all registered topology families
    at the :data:`IDENTITY_SWEEP_N` size class.  "Identical" means equal
    flat arrays *and* equal materialised round/transmission objects.
    """
    from ..core.concurrent_updown import (
        concurrent_updown,
        concurrent_updown_reference,
    )
    from ..tree.labeling import LabeledTree
    from .sweep import FAMILIES, family_instance

    verdicts: Dict[str, bool] = {}
    for family in sorted(FAMILIES):
        graph = family_instance(family, n)
        labeled = LabeledTree(minimum_depth_spanning_tree(graph, method="pruned"))
        fast = concurrent_updown(labeled)
        seed = concurrent_updown_reference(labeled)
        verdicts[family] = (
            fast.arrays() == seed.arrays() and fast.rounds == seed.rounds
        )
    return verdicts


def run_planner_bench(
    specs: Optional[Sequence[str]] = None,
    *,
    repeats: int = 3,
    min_speedup: float = MIN_SPEEDUP,
    cold_max_ratio: float = COLD_MAX_RATIO,
    algorithm: str = "concurrent-updown",
    schedule_identity: bool = True,
) -> PlannerBenchReport:
    """Time the pruned vs exhaustive sweep on each network spec.

    ``specs`` are :func:`~repro.core.gossip.resolve_network` strings
    (``"family:n"``).  For each network the exhaustive and pruned
    minimum-depth constructions are timed, the resulting trees compared
    field-for-field, and the cold end-to-end plan
    (:func:`~repro.core.gossip.gossip` with the fast path) timed.  The
    exhaustive sweep is best of ``repeats``; the pruned sweep and the cold
    plan alternate for best of ``max(5, repeats)`` each, since their ratio
    is gated and a single run is too noisy to gate on.
    Unless ``schedule_identity=False``, the all-families array-vs-seed
    schedule sweep (:func:`_schedule_identity_sweep`) runs too.
    """
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    chosen = tuple(specs) if specs is not None else DEFAULT_SPECS
    if not chosen:
        raise ReproError("no network specs to benchmark")
    cells: List[PlannerCell] = []
    for spec in chosen:
        graph, _ = resolve_network(spec)
        exhaustive_s, ref_tree = _best_of(
            lambda: minimum_depth_spanning_tree(graph, method="exhaustive"), repeats
        )
        # The cold plan and the pruned sweep it is gated against are timed
        # in alternation, so a burst of host load lands on both sides of
        # the ratio rather than on the cold plan alone.
        pruned_s = plan_cold_s = float("inf")
        for _ in range(max(5, repeats)):
            once_s, fast_tree = _best_of(
                lambda: minimum_depth_spanning_tree(graph, method="pruned"), 1
            )
            pruned_s = min(pruned_s, once_s)
            once_s, _ = _best_of(lambda: gossip(graph, algorithm=algorithm), 1)
            plan_cold_s = min(plan_cold_s, once_s)
        identical = (
            fast_tree == ref_tree
            and fast_tree.root == ref_tree.root
            and fast_tree.parents() == ref_tree.parents()
            and all(
                fast_tree.children(v) == ref_tree.children(v)
                for v in range(fast_tree.n)
            )
        )
        family = spec.partition(":")[0]
        cells.append(
            PlannerCell(
                spec=spec,
                family=family,
                n=graph.n,
                m=graph.m,
                radius=fast_tree.height,
                exhaustive_s=exhaustive_s,
                pruned_s=pruned_s,
                speedup=exhaustive_s / pruned_s if pruned_s > 0 else float("inf"),
                plan_cold_s=plan_cold_s,
                cold_ratio=plan_cold_s / pruned_s if pruned_s > 0 else float("inf"),
                identical=identical,
                gated=family == GATE_FAMILY and graph.n >= GATE_MIN_N,
                cold_gated=family == GATE_FAMILY and graph.n == GATE_MIN_N,
            )
        )
    verdicts = _schedule_identity_sweep() if schedule_identity else {}
    return PlannerBenchReport(
        cells,
        min_speedup=min_speedup,
        cold_max_ratio=cold_max_ratio,
        schedule_identity=verdicts,
    )
