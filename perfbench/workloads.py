"""The benchmark's workloads: inputs from a seed, timed calls, output checks.

Each workload is a class with three methods:

``setup(seed)``
    Builds the inputs through the package's public constructors,
    configures the service or peers, and makes one toy-size warm-up call
    into every layer the workload uses.  The runner times it several
    times and reports the median as ``setup_s``.
``work(state, tracer, seconds, speed)``
    Runs a fixed number of operations (fixed by ``seconds``, not by the
    clock, so two commits do the same work), sampling the host speed
    before each, and returns a :class:`Work` record: one latency per
    operation, failures, and the layer numbers that only a traced run
    reports.
``check(state, work)``
    Checks the outputs and raises :class:`CheckFailed` on a mismatch.

``SCALED`` says whether the workload's times are host-speed scaled
(:class:`~harness.HostSpeed`): each operation's latency by the samples
either side of it, the work time by the mean of the phase's samples.
Only single-threaded compute is scaled: there the one-thread sampling
loop tracks the work's speed and cuts the run-to-run spread, while for
threads, sockets and processes it added noise.

Operations that raise, return an incomplete gossip, or fail a per-
operation check count as failed; a failed operation's latency is
``inf``, so it counts as missing every latency limit.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import (
    FaultModel,
    GossipPlan,
    GossipService,
    execute_plan_with_faults,
    gossip,
    lint_schedule,
    topologies,
)
from repro.check import check_family
from repro.core.concurrent_updown import concurrent_updown
from repro.core.schedule import Round, Schedule, Transmission
from repro.networks import require_connected
from repro.networks.io import graph_from_json, graph_to_json
from repro.networks.random_graphs import random_connected_gnp, random_tree
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.runtime import NetChaos, RuntimeConfig, run_gossip_network, run_gossip_processes
from repro.tree.labeling import LabeledTree

from harness import CheckFailed, HostSpeed, Tracer, peak_rss_mb, median_or_zero, percentile

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Work:
    """What one work phase measured."""

    latencies: List[float] = field(default_factory=list)  # per op; inf = failed
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    outputs: Dict[str, object] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.latencies.append(float("inf"))
        if len(self.failures) < 5:
            self.failures.append(what)


def _relabeled(graph, rng: random.Random):
    """``graph`` with its vertex ids shuffled by ``rng`` (same shape)."""
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return graph.relabeled(perm)


def _ops(seconds: float, nominal_s: float, minimum: int = 1) -> int:
    """How many operations of ``nominal_s`` seconds fill ``seconds``."""
    return max(minimum, int(seconds / nominal_s))


def offline_multiset(plan: GossipPlan) -> List[Tuple[int, int, int, Tuple[int, ...]]]:
    return sorted(
        (t, tx.sender, tx.message, tuple(sorted(tx.destinations)))
        for t, rnd in enumerate(plan.schedule.rounds)
        for tx in rnd
    )


# ---------------------------------------------------------------------------
# verify: plan, execute and lint (deep and wide inputs); lossy execution
# ---------------------------------------------------------------------------
def plan_traced(graph, tracer: Tracer) -> GossipPlan:
    """:func:`repro.gossip` on a :class:`Graph`, split into its stages.

    Every verify op plans through here, traced or not: with the tracer
    disabled the spans are no-ops, so both kinds of run do the same work.
    """
    with tracer.span("core.gossip"):
        with tracer.span("networks.sweep"):
            require_connected(graph, "gossiping")
            tree = minimum_depth_spanning_tree(graph)
        with tracer.span("tree.label"):
            labeled = LabeledTree(tree)
        with tracer.span("core.emit_merge"):
            schedule = concurrent_updown(labeled)
        return GossipPlan(graph=graph, tree=tree, labeled=labeled,
                          schedule=schedule, algorithm="concurrent-updown")


def verify_plan(graph, plan: GossipPlan, tracer: Tracer, layers: Dict[str, list],
                speed: HostSpeed) -> Tuple[Optional[str], float]:
    """Execute and lint ``plan``: why it is wrong (or ``None``) and the scaled seconds."""
    with tracer.span("simulator.execute"):
        result, execute_s = speed.scaled_call(plan.execute)
    layers["mem.peak_after_execute_mb"].append(peak_rss_mb())
    with tracer.span("lint.lint"):
        report, lint_s = speed.scaled_call(lambda: lint_schedule(graph, plan.schedule, plan=plan))
    layers["mem.peak_after_lint_mb"].append(peak_rss_mb())
    layers["lint.errors"].append(len(report.errors))
    why = None
    if not result.complete:
        why = "gossip incomplete"
    elif result.duplicate_deliveries:
        why = f"{result.duplicate_deliveries} duplicate deliveries"
    elif plan.total_time != graph.n + plan.tree.height:
        why = f"total_time {plan.total_time} != n + height {graph.n + plan.tree.height}"
    elif report.errors:
        why = f"{len(report.errors)} lint errors"
    return why, execute_s + lint_s


def drop_one_delivery(plan: GossipPlan) -> GossipPlan:
    """A copy of ``plan`` with its first delivery removed (a corrupted output)."""
    rounds = list(plan.schedule.rounds)
    for t, rnd in enumerate(rounds):
        for tx in rnd:
            rest = sorted(tx.destinations)[1:]
            others = [x for x in rnd if x is not tx]
            if rest:
                others.append(Transmission(tx.sender, tx.message, frozenset(rest)))
            rounds[t] = Round(others)
            return GossipPlan(graph=plan.graph, tree=plan.tree, labeled=plan.labeled,
                              schedule=Schedule(rounds), algorithm=plan.algorithm)
    raise ValueError("plan has no deliveries")


class Verify:
    """``gossip`` + ``GossipPlan.execute`` + ``lint_schedule`` on one input.

    ``shape`` picks the input: ``deep`` is a grid, whose rows are almost
    all unicasts; ``wide`` is a star, whose rows each reach about half
    the network.
    """

    SCALED = True
    SIZES = {"deep": (20, 1.4), "wide": (512, 0.4)}   # full size, nominal op seconds
    TOY = {"deep": 4, "wide": 16}

    def __init__(self, shape: str, toy: bool) -> None:
        self.shape = shape
        self.toy = toy
        size, self.nominal_s = self.SIZES[shape]
        self.size = self.TOY[shape] if toy else size

    def _graph(self):
        if self.shape == "deep":
            return topologies.grid_2d(self.size, self.size)
        return topologies.star_graph(self.size)

    def setup(self, seed: int) -> dict:
        graph = _relabeled(self._graph(), random.Random(seed))
        toy = topologies.grid_2d(3, 3)
        plan = gossip(toy)
        plan.execute()
        lint_schedule(toy, plan.schedule, plan=plan)
        return {"graph": graph}

    def work(self, state: dict, tracer: Tracer, seconds: float, speed: HostSpeed) -> Work:
        graph = state["graph"]
        work = Work()
        layers: Dict[str, list] = {k: [] for k in (
            "mem.peak_after_execute_mb", "mem.peak_after_lint_mb", "lint.errors")}
        before_mb = peak_rss_mb()
        for _ in range(_ops(seconds, self.nominal_s)):
            speed.sample()
            work.attempted += 1
            try:
                # Timed stage by stage, each scaled by the samples either side.
                plan, plan_s = speed.scaled_call(plan_traced, graph, tracer)
                why, verify_s = verify_plan(graph, plan, tracer, layers, speed)
            except Exception as exc:  # an operation that raises counts as failed
                work.fail(f"{type(exc).__name__}: {exc}")
                continue
            if why is not None:
                work.fail(why)
                continue
            work.latencies.append(plan_s + verify_s)
            arrays = plan.arrays()
            work.outputs["rows"] = arrays.n_transmissions
            work.layers.update({
                "core.rows": arrays.n_transmissions,
                "core.deliveries": arrays.delivery_count(),
                "core.schedule_nbytes": arrays.nbytes,
            })
            # Freed before the next op plans, so the peak is one op's.
            del plan, arrays
        work.layers.update({
            "networks.sweep_s": median_or_zero(tracer.durations("networks.sweep")),
            "tree.label_s": median_or_zero(tracer.durations("tree.label")),
            "core.emit_merge_s": median_or_zero(tracer.durations("core.emit_merge")),
            "simulator.execute_s": median_or_zero(tracer.durations("simulator.execute")),
            "lint.lint_s": median_or_zero(tracer.durations("lint.lint")),
            "lint.errors": sum(layers["lint.errors"]),
            # The process's peak only grows, so the first op's stages are
            # the ones that show which stage sets it.
            "mem.peak_before_work_mb": before_mb,
            "mem.peak_after_execute_mb": (layers["mem.peak_after_execute_mb"] or [0.0])[0],
            "mem.peak_after_lint_mb": (layers["mem.peak_after_lint_mb"] or [0.0])[0],
        })
        return work

    def check(self, state: dict, work: Work) -> None:
        """Nothing left: each op was checked as it ran (complete, no
        duplicates, ``n + height``, lint clean) and counted if it failed."""


PINNED_LOSSY = os.path.join(HERE, "pinned_lossy.json")


def _digest(complete, total_time, completion_times, duplicates, final_holds,
            lost, suppressed) -> str:
    payload = json.dumps([
        complete, total_time, list(completion_times), duplicates,
        [hex(h) for h in final_holds], sorted(lost), sorted(suppressed),
    ])
    return hashlib.sha256(payload.encode()).hexdigest()


def lossy_digest(result) -> str:
    """Digest of everything a lossy execution observably decides."""
    return _digest(
        result.complete, result.total_time, result.completion_times,
        result.duplicate_deliveries, result.final_holds,
        [(d.time, d.receiver, d.sender, d.message, d.reason) for d in result.lost],
        [(s.time, s.sender, s.message, s.reason) for s in result.suppressed],
    )


def reference_lossy_digest(plan: GossipPlan, model: FaultModel) -> str:
    """:func:`lossy_digest` of the run that ``plan`` under ``model`` must give.

    An independent replay of the possession semantics for a drop-only
    model: vertex ``v`` starts with message ``label[v]``; deliveries sent
    in round ``t`` land at the start of round ``t + 1`` (the last ones at
    ``total_time``); a sender that lacks its message is suppressed
    (``not-held``); each delivery the model drops is lost.  It shares no
    code with the engine but the model's own draw, so it holds for any
    seed, pinned or not.
    """
    n = plan.graph.n
    holds = [1 << int(label) for label in plan.labeled.labels()]
    full = (1 << n) - 1
    done: List[Optional[int]] = [0 if h == full else None for h in holds]
    duplicates = 0
    lost, suppressed, pending = [], [], []

    def deliver(batch, t: int) -> None:
        nonlocal duplicates
        for v, m in batch:
            if holds[v] >> m & 1:
                duplicates += 1
                continue
            holds[v] |= 1 << m
            if holds[v] == full:
                done[v] = t

    for t, rnd in enumerate(plan.schedule.rounds):
        deliver(pending, t)
        pending = []
        for tx in rnd:
            if not holds[tx.sender] >> tx.message & 1:
                suppressed.append((t, tx.sender, tx.message, "not-held"))
                continue
            for d in tx.destinations:
                if model.drops_delivery(t, tx.sender, d):
                    lost.append((t, d, tx.sender, tx.message, "drop"))
                else:
                    pending.append((d, tx.message))
    total_time = plan.schedule.total_time
    deliver(pending, total_time)
    return _digest(all(h == full for h in holds), total_time, done, duplicates, holds,
                   lost, suppressed)


class Lossy:
    """``gossip`` + ``execute_plan_with_faults`` under seeded 5% loss."""

    SCALED = True
    DROP_RATE = 0.05

    def __init__(self, toy: bool) -> None:
        self.toy = toy
        self.side = 4 if toy else 16
        self.nominal_s = 0.65

    def setup(self, seed: int) -> dict:
        graph = _relabeled(topologies.grid_2d(self.side, self.side), random.Random(seed))
        toy = gossip(topologies.grid_2d(3, 3))
        execute_plan_with_faults(toy, FaultModel(seed=seed, drop_rate=self.DROP_RATE))
        return {"graph": graph, "seed": seed}

    def work(self, state: dict, tracer: Tracer, seconds: float, speed: HostSpeed) -> Work:
        graph, seed = state["graph"], state["seed"]
        work = Work()
        digests = []
        for _ in range(_ops(seconds, self.nominal_s)):
            speed.sample()
            work.attempted += 1
            t0 = time.perf_counter()
            try:
                plan = plan_traced(graph, tracer)
                # A fresh model per op: its decision memo must start cold.
                model = FaultModel(seed=seed, drop_rate=self.DROP_RATE)
                with tracer.span("simulator.lossy"):
                    result = execute_plan_with_faults(plan, model)
            except Exception as exc:  # an operation that raises counts as failed
                work.fail(f"{type(exc).__name__}: {exc}")
                continue
            if plan.total_time != graph.n + plan.tree.height:
                work.fail("total_time != n + height")
                continue
            work.latencies.append(speed.scaled(time.perf_counter() - t0))
            digests.append(lossy_digest(result))
        work.outputs["digests"] = digests
        work.layers.update({
            "networks.sweep_s": median_or_zero(tracer.durations("networks.sweep")),
            "tree.label_s": median_or_zero(tracer.durations("tree.label")),
            "core.emit_merge_s": median_or_zero(tracer.durations("core.emit_merge")),
            "simulator.lossy_s": median_or_zero(tracer.durations("simulator.lossy")),
        })
        return work

    def check(self, state: dict, work: Work) -> None:
        digests = work.outputs["digests"]
        if len(set(digests)) > 1:
            raise CheckFailed("lossy execution differs between runs of one seed")
        if not digests:
            return
        model = FaultModel(seed=state["seed"], drop_rate=self.DROP_RATE)
        if digests[0] != reference_lossy_digest(gossip(state["graph"]), model):
            raise CheckFailed("lossy execution differs from the reference replay")
        if self.toy:
            return
        with open(PINNED_LOSSY, encoding="utf-8") as fh:
            pinned = json.load(fh)["digests"]
        expected = pinned.get(str(state["seed"]))
        if expected is not None and digests[0] != expected:
            raise CheckFailed(f"lossy digest {digests[0][:12]} != pinned {expected[:12]}")
        work.outputs["lossy_digest"] = "pinned" if expected else "unpinned"


# ---------------------------------------------------------------------------
# serve: a closed loop of clients on one GossipService
# ---------------------------------------------------------------------------
def serve_pool(rng: random.Random, toy: bool):
    """The 48 request networks (n from 63 to 512), most popular first."""
    if toy:
        pool = [topologies.grid_2d(3, 3), topologies.path_graph(5),
                topologies.cycle_graph(6), topologies.star_graph(5)]
    else:
        pool = (
            [topologies.grid_2d(r, c) for r, c in ((8, 8), (8, 12), (12, 12), (12, 18),
                                                   (16, 16), (16, 32))]
            + [topologies.torus_2d(r, c) for r, c in ((8, 8), (8, 12), (12, 12), (12, 18),
                                                    (16, 16), (16, 32))]
            + [topologies.hypercube(d) for d in (6, 7, 8, 9)]
            + [topologies.path_graph(n) for n in (64, 96, 128, 192, 256, 384)]
            + [topologies.cycle_graph(n) for n in (64, 96, 128, 192, 256, 384)]
            + [topologies.binary_tree(h) for h in (5, 6, 7, 8)]
            + [random_connected_gnp(n, p=3.0 / n, seed=rng.randrange(1 << 30))
               for n in (64, 96, 128, 160, 192, 256, 384, 512)]
            + [random_tree(n, seed=rng.randrange(1 << 30))
               for n in (64, 96, 128, 160, 192, 256, 384, 512)]
        )
    # Rank i of the Zipf law is pool[i]: popularity falls with size, so
    # small networks are mostly hits and the largest are the rare, cold
    # builds.  The order is the same for every seed; a seed changes which
    # requests come when, not which sizes are hot (with hot sizes drawn
    # per seed, peak RSS moved by a third between seeds).
    return sorted(pool, key=lambda g: g.n)


def zipf_requests(weights: List[float], total: int, rng: random.Random) -> List[int]:
    """``total`` pool indices, each as often as its Zipf weight says, in seeded order.

    Stratified rather than drawn independently: every seed requests the
    same multiset, so the tail of the latency distribution does not hinge
    on how often one run happened to draw a rare, large network.
    """
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)), key=lambda r: counts[r] - weights[r] * scale)
    for r in by_remainder[:total - sum(counts)]:
        counts[r] += 1
    picks = [r for r, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(picks)
    return picks


class Serve:
    """Two client threads in a closed loop on ``GossipService(max_entries=32)``.

    Reads are ``graph_to_json`` texts, Zipf(1.1)-popular over the pool; the
    handler parses them and calls ``plan``.  Every 20th request is a
    write on one of 4 maintained networks: add or remove a chord, then
    ``plan``.
    """

    SCALED = False  # two client threads on two cores: the one-thread loop does not track them
    CLIENTS = 2
    WRITE_EVERY = 20
    ZIPF_S = 1.1
    CACHE_ENTRIES = 32

    def __init__(self, toy: bool) -> None:
        self.toy = toy
        self.nominal_s = 0.0035  # per request, both clients together

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        pool = serve_pool(rng, self.toy)
        texts = [graph_to_json(g) for g in pool]
        service = GossipService(max_entries=4 if self.toy else self.CACHE_ENTRIES)
        bases = ([topologies.grid_2d(3, 3)] * 4 if self.toy else
                 [topologies.grid_2d(12, 12), topologies.torus_2d(10, 10),
                  random_connected_gnp(128, p=3.0 / 128, seed=rng.randrange(1 << 30)),
                  topologies.cycle_graph(128)])
        maintained = []
        for g in bases:
            u, v = rng.sample(range(g.n), 2)
            while g.has_edge(u, v):
                u, v = rng.sample(range(g.n), 2)
            maintained.append({"net": service.maintain(g), "chord": (u, v),
                               "present": False, "lock": threading.Lock()})
        toy = topologies.grid_2d(3, 3)
        service.plan(graph_from_json(graph_to_json(toy)))
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(len(texts))]
        return {"texts": texts, "weights": weights, "service": service,
                "maintained": maintained, "rng": rng}

    def work(self, state: dict, tracer: Tracer, seconds: float, speed: HostSpeed) -> Work:
        texts, service, maintained = state["texts"], state["service"], state["maintained"]
        total = max(self.CLIENTS * 50, int(seconds / self.nominal_s))
        rng: random.Random = state["rng"]
        picks = zipf_requests(state["weights"], total, rng)
        sampled = rng.sample(picks, 3)  # networks whose served plans check() replays
        work = Work(attempted=total)
        lock = threading.Lock()
        last_plan: Dict[int, weakref.ref] = {}
        kinds: Dict[str, List[float]] = {"hit": [], "miss": [], "churn": []}

        def write(i: int) -> GossipPlan:
            entry = maintained[(i // self.WRITE_EVERY) % len(maintained)]
            with entry["lock"]:
                net = entry["net"]
                with tracer.span("service.churn"):
                    if entry["present"]:
                        net.remove_edge(*entry["chord"])
                    else:
                        net.add_edge(*entry["chord"])
                    entry["present"] = not entry["present"]
                    return net.plan()

        def read(i: int) -> Tuple[GossipPlan, str]:
            with tracer.span("networks.parse"):
                graph = graph_from_json(texts[picks[i]])
            with tracer.span("service.plan"):
                plan = service.plan(graph)
            ref = last_plan.get(picks[i])
            kind = "hit" if ref is not None and ref() is plan else "miss"
            last_plan[picks[i]] = weakref.ref(plan)
            return plan, kind

        def client(indices: Iterator[int]) -> None:
            for i in indices:  # shared by the clients
                if i >= total:
                    return
                t0 = time.perf_counter()
                try:
                    if i % self.WRITE_EVERY == self.WRITE_EVERY - 1:
                        plan, kind = write(i), "churn"
                    else:
                        plan, kind = read(i)
                except Exception as exc:  # a failed request counts, the loop goes on
                    with lock:
                        work.fail(f"{type(exc).__name__}: {exc}")
                    continue
                latency = time.perf_counter() - t0
                ok = plan.total_time == plan.graph.n + plan.tree.height
                with lock:
                    if not ok:
                        work.fail("served plan length != n + height")
                        continue
                    work.latencies.append(latency)
                    if kind in kinds:
                        kinds[kind].append(latency)

        indices = itertools.count()
        threads = [threading.Thread(target=client, args=(indices,))
                   for _ in range(self.CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Re-served by check(), not kept: holding plans would move peak RSS.
        work.outputs["sampled"] = [texts[i] for i in sampled]
        stats = service.stats()
        ms = 1000.0
        work.layers.update({
            "networks.parse_ms": median_or_zero(tracer.durations("networks.parse")) * ms,
            "service.hit_p50_ms": median_or_zero(kinds["hit"]) * ms,
            "service.miss_p50_ms": median_or_zero(kinds["miss"]) * ms,
            "service.miss_p99_ms": (percentile(kinds["miss"], 99) * ms) if kinds["miss"] else 0.0,
            "service.churn_p50_ms": median_or_zero(kinds["churn"]) * ms,
            "service.requests": stats.requests,
            "service.hit_ratio": stats.hits / stats.requests if stats.requests else 0.0,
            "service.evictions": stats.evictions,
            "service.invalidations": stats.invalidations,
            "service.patched": stats.patched,
        })
        return work

    def check(self, state: dict, work: Work) -> None:
        for text in work.outputs["sampled"]:
            result = state["service"].plan(graph_from_json(text)).execute()
            if not result.complete or result.duplicate_deliveries:
                raise CheckFailed("a sampled served plan does not replay complete")


# ---------------------------------------------------------------------------
# peers: the real-socket runtimes
# ---------------------------------------------------------------------------
def _check_offline_exact(result, offline: GossipPlan) -> Optional[str]:
    if not result.complete or result.coverage != 1.0:
        return "fault-free run incomplete"
    summary = result.deterministic_summary()
    online = sorted((t, s, m, tuple(sorted(d))) for t, s, m, d in summary["transcript"])
    if online != offline_multiset(offline):
        return "fault-free transcript differs from the offline schedule"
    return None


class PeersNet:
    """In-process asyncio UDP peers: fault-free grid:64 runs and chaos grid:36 runs."""

    SCALED = False  # sockets and the event loop: the one-thread loop does not track them
    FAULT_FREE_PER_CYCLE = 3

    def __init__(self, toy: bool) -> None:
        self.toy = toy
        self.sides = (3, 2) if toy else (8, 6)
        self.nominal_cycle_s = 4.7

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        clean = _relabeled(topologies.grid_2d(self.sides[0], self.sides[0]), rng)
        lossy = _relabeled(topologies.grid_2d(self.sides[1], self.sides[1]), rng)
        config = RuntimeConfig(seed=seed)
        run_gossip_network(topologies.path_graph(3), config=config)
        return {"clean": clean, "lossy": lossy, "offline": gossip(clean), "config": config,
                "chaos": NetChaos(seed=seed, drop_rate=0.05)}

    def work(self, state: dict, tracer: Tracer, seconds: float, speed: HostSpeed) -> Work:
        work = Work()
        per_run: Dict[str, List[float]] = {"round_ms": [], "dgram_s": [], "overhead": [],
                                           "chaos": []}
        counts = dict.fromkeys(("retransmissions", "duplicates_suppressed", "dropped",
                                "sent"), 0)
        summaries = []
        cycles = max(1, int(seconds / self.nominal_cycle_s))
        for _ in range(cycles):
            for k in range(self.FAULT_FREE_PER_CYCLE + 1):
                chaotic = k == self.FAULT_FREE_PER_CYCLE
                speed.sample()
                work.attempted += 1
                t0 = time.perf_counter()
                try:
                    with tracer.span("runtime.chaos_run" if chaotic else "runtime.run"):
                        result = run_gossip_network(
                            state["lossy"] if chaotic else state["clean"],
                            config=state["config"],
                            chaos=state["chaos"] if chaotic else None)
                except Exception as exc:  # RuntimeDeadlineError and the like
                    work.fail(f"{type(exc).__name__}: {exc}")
                    continue
                call = time.perf_counter() - t0
                if chaotic:
                    if not result.complete:
                        work.fail("chaos run incomplete")
                        continue
                    per_run["chaos"].append(call)
                    counts["retransmissions"] += result.retransmissions
                    counts["duplicates_suppressed"] += result.duplicates_suppressed
                    counts["dropped"] += result.stats.dropped
                    counts["sent"] += result.stats.sent
                    continue
                why = _check_offline_exact(result, state["offline"])
                if why is not None:
                    work.fail(why)
                    continue
                work.latencies.append(call)  # the latency samples are fault-free runs
                summaries.append(result.deterministic_summary())
                per_run["round_ms"].append(result.wall_seconds / result.rounds_completed * 1e3)
                per_run["dgram_s"].append(result.stats.sent / result.wall_seconds)
                per_run["overhead"].append(call - result.wall_seconds)
        work.outputs["summaries"] = summaries
        work.layers.update({
            "runtime.round_ms": median_or_zero(per_run["round_ms"]),
            "runtime.datagrams_per_s": median_or_zero(per_run["dgram_s"]),
            "runtime.setup_teardown_s": median_or_zero(per_run["overhead"]),
            "runtime.chaos_run_s": median_or_zero(per_run["chaos"]),
            **{f"runtime.{k}": v for k, v in counts.items()},
        })
        return work

    def check(self, state: dict, work: Work) -> None:
        summaries = work.outputs["summaries"]
        if any(s != summaries[0] for s in summaries):
            raise CheckFailed("fault-free runs of one seed disagree")


class PeersProc:
    """One supervised OS process per peer: fault-free grid:4 runs."""

    SCALED = False  # four processes on two cores: the one-thread loop does not track them

    def __init__(self, toy: bool) -> None:
        self.toy = toy
        self.nominal_s = 2.4

    def setup(self, seed: int) -> dict:
        graph = _relabeled(topologies.grid_2d(2, 2), random.Random(seed))
        return {"graph": graph, "offline": gossip(graph), "config": RuntimeConfig(seed=seed)}

    def work(self, state: dict, tracer: Tracer, seconds: float, speed: HostSpeed) -> Work:
        work = Work()
        walls, teardown = [], []
        for _ in range(_ops(seconds, self.nominal_s)):
            speed.sample()
            work.attempted += 1
            t0 = time.perf_counter()
            try:
                with tracer.span("supervisor.run"):
                    result = run_gossip_processes(state["graph"], config=state["config"])
            except Exception as exc:  # SupervisorError, RuntimeDeadlineError
                work.fail(f"{type(exc).__name__}: {exc}")
                continue
            call = time.perf_counter() - t0
            why = _check_offline_exact(result, state["offline"])
            if why is None and result.mode != "fault-free":
                why = f"mode {result.mode}"
            if why is not None:
                work.fail(why)
                continue
            work.latencies.append(call)
            walls.append(result.wall_seconds)
            teardown.append(call - result.wall_seconds)
        work.layers.update({
            "supervisor.run_s": median_or_zero(walls),
            "supervisor.teardown_s": median_or_zero(teardown),
        })
        return work

    def check(self, state: dict, work: Work) -> None:
        """Nothing left: each run was checked offline-exact as it ended."""


# ---------------------------------------------------------------------------
# model-check: the protocol model checker
# ---------------------------------------------------------------------------
CHECK_COUNTS = ("scenarios", "states", "transitions", "fault_free_states",
                "max_scenario_states", "ample_states", "fallback_states")


class ModelCheck:
    """``check_family`` with one crash on path:4, star:4 and complete:4.

    The checker is exhaustive over fixed families, so the seed changes
    nothing here; the counts are compared with ``CHECK_protocol.json``.
    """

    SCALED = True
    FAMILIES = (("path", 4), ("star", 4), ("complete", 4))

    def __init__(self, toy: bool) -> None:
        self.toy = toy
        self.families = (("path", 3),) if toy else self.FAMILIES
        self.nominal_pass_s = 4.8

    def setup(self, seed: int) -> dict:
        root = os.path.dirname(HERE)
        with open(os.path.join(root, "CHECK_protocol.json"), encoding="utf-8") as fh:
            committed = json.load(fh)
        check_family("path", 2, crashes=committed["crashes"], budget=committed["budget"])
        return {"committed": committed}

    def work(self, state: dict, tracer: Tracer, seconds: float, speed: HostSpeed) -> Work:
        committed = state["committed"]
        work = Work()
        states = transitions = ample = fallback = 0
        busy = 0.0
        results = []
        for _ in range(_ops(seconds, self.nominal_pass_s)):
            for family, n in self.families:
                speed.sample()
                work.attempted += 1
                t0 = time.perf_counter()
                try:
                    with tracer.span("check.family"):
                        result = check_family(family, n, crashes=committed["crashes"],
                                              budget=committed["budget"])
                except Exception as exc:  # an operation that raises counts as failed
                    work.fail(f"{type(exc).__name__}: {exc}")
                    continue
                call = time.perf_counter() - t0
                if not result.ok:
                    work.fail(f"{family}:{n} counterexample")
                    continue
                work.latencies.append(speed.scaled(call))
                busy += call
                results.append((f"{family}:{n}", result.summary()))
                states += result.states
                transitions += result.transitions
                ample += result.ample_states
                fallback += result.fallback_states
        work.outputs["results"] = results
        passes = max(1, work.attempted // len(self.families))
        work.layers.update({
            "check.states": states // passes,
            "check.transitions": transitions // passes,
            "check.ample_states": ample // passes,
            "check.fallback_states": fallback // passes,
            "check.states_per_s": states / busy if busy else 0.0,
        })
        return work

    def check(self, state: dict, work: Work) -> None:
        families = state["committed"]["families"]
        for key, summary in work.outputs["results"]:
            expected = families.get(key)
            if expected is None:
                raise CheckFailed(f"{key} is not in CHECK_protocol.json")
            got = {k: summary[k] for k in CHECK_COUNTS}
            if got != {k: expected[k] for k in CHECK_COUNTS}:
                raise CheckFailed(f"{key} counts {got} != CHECK_protocol.json")


WORKLOADS = {
    "verify-deep": lambda toy: Verify("deep", toy),
    "verify-wide": lambda toy: Verify("wide", toy),
    "verify-lossy": Lossy,
    "serve": Serve,
    "peers-net": PeersNet,
    "peers-proc": PeersProc,
    "model-check": ModelCheck,
}
