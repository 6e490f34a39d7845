"""End-to-end gossiping pipeline: network in, verified schedule out.

This is the library's front door.  :func:`gossip` reproduces the paper's
two-stage procedure:

1. build the minimum-depth spanning tree of the network (Section 3.1),
2. DFS-label it and run the selected tree-gossiping algorithm
   (Section 3.2) — ConcurrentUpDown by default.

The result object bundles every intermediate artefact (tree, labelling,
schedule) plus :meth:`GossipPlan.execute`, which replays the schedule on
the round-based simulator and checks completeness, and
:meth:`GossipPlan.vertex_completion_times` for per-processor analysis.

Message ids in the schedule are DFS labels; :attr:`GossipPlan.labeled`
maps them back to vertices.

API conventions
---------------
Everything after the first positional argument is **keyword-only**:
``gossip(g, algorithm="simple")``, ``plan.execute(on_tree_only=True)``;
a positional call gets Python's own ``TypeError``.  The first argument
of :func:`gossip` is a *network spec* resolved by
:func:`resolve_network` — a :class:`~repro.networks.graph.Graph`, a
:class:`~repro.tree.tree.Tree` (scheduling happens on exactly that
tree), or a topology-family string such as ``"grid"`` or ``"grid:64"``.

The algorithm registry :data:`ALGORITHMS` is populated **eagerly**: the
built-in algorithm modules register themselves via
:func:`register_algorithm` when ``repro.core`` is imported, so the
registry is always complete by the time any public entry point runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # the engine is never imported at module load time
    from ..simulator.engine import ExecutionResult

from ..exceptions import ReproError
from ..networks.bfs import require_connected
from ..networks.builders import tree_to_graph
from ..networks.graph import Graph
from ..networks.spanning_tree import minimum_depth_spanning_tree
from ..tree.labeling import LabeledTree
from ..tree.tree import Tree
from .schedule import ArraySchedule, Round, Schedule

__all__ = [
    "GossipPlan",
    "gossip",
    "gossip_on_tree",
    "resolve_network",
    "NetworkSpec",
    "ALGORITHMS",
    "register_algorithm",
]

#: Anything :func:`resolve_network` understands as a communication network.
NetworkSpec = Union[Graph, Tree, str]

#: Registry of tree-gossiping algorithms: name -> (LabeledTree -> Schedule).
#: Complete as soon as ``repro.core`` is imported (eager registration).
ALGORITHMS: Dict[str, Callable[[LabeledTree], Schedule]] = {}


def register_algorithm(name: str) -> Callable:
    """Decorator registering a tree-gossiping algorithm under ``name``.

    The built-in algorithm modules apply this at import time (see
    :mod:`repro.core`), so :data:`ALGORITHMS` never needs lazy
    population; third-party algorithms can use the same decorator.
    """

    def wrap(fn: Callable[[LabeledTree], Schedule]) -> Callable[[LabeledTree], Schedule]:
        ALGORITHMS[name] = fn
        return fn

    return wrap


def resolve_network(
    network: NetworkSpec, *, tree: Optional[Tree] = None
) -> Tuple[Graph, Optional[Tree]]:
    """Single dispatch point mapping a network spec to ``(graph, tree)``.

    Shared by :func:`gossip` and :class:`repro.service.GossipService`, so
    every front door accepts the same spellings:

    * a :class:`~repro.networks.graph.Graph` — passed through;
    * a :class:`~repro.tree.tree.Tree` — the network is the tree itself
      and scheduling is pinned to it;
    * a topology-family string ``"family"`` or ``"family:n"`` (e.g.
      ``"grid"``, ``"hypercube:64"``) resolved through
      :data:`repro.analysis.sweep.FAMILIES`; ``n`` defaults to 16.

    ``tree`` is the caller's explicit spanning-tree override; passing one
    alongside a ``Tree`` network spec is rejected unless they are equal.
    """
    if isinstance(network, Graph):
        return network, tree
    if isinstance(network, Tree):
        if tree is not None and tree != network:
            raise ReproError(
                "network spec is a Tree but a different tree= override was given"
            )
        return tree_to_graph(network), network
    if isinstance(network, str):
        from ..analysis.sweep import FAMILIES, family_instance

        name, sep, size = network.partition(":")
        if name not in FAMILIES:
            raise ReproError(
                f"unknown topology family {name!r}; choose from {sorted(FAMILIES)}"
            )
        if sep:
            try:
                n = int(size)
            except ValueError as exc:
                raise ReproError(
                    f"bad topology size in {network!r}; want 'family:n' with integer n"
                ) from exc
        else:
            n = 16
        return family_instance(name, n), tree
    raise ReproError(
        f"cannot interpret {network!r} as a network "
        "(want a Graph, a Tree, or a topology-family string)"
    )


@dataclass(frozen=True)
class GossipPlan:
    """A gossiping solution for one network.

    Attributes
    ----------
    graph:
        The original communication network.
    tree:
        The spanning tree all communications use.
    labeled:
        The tree's DFS labelling (message id <-> vertex map).
    schedule:
        The communication schedule; message ids are DFS labels.
    algorithm:
        Registry name of the algorithm that produced the schedule.
    """

    graph: Graph
    tree: Tree
    labeled: LabeledTree
    schedule: Schedule
    algorithm: str

    def __post_init__(self) -> None:
        # Memoisation slot for the default execution (plan is frozen, so
        # the replay is deterministic and safe to cache).
        object.__setattr__(self, "_default_execution", None)

    @property
    def total_time(self) -> int:
        """Total communication time of the schedule."""
        return self.schedule.total_time

    def arrays(self) -> ArraySchedule:
        """The canonical array form of the schedule.

        Flat ``(round, sender, message)`` columns plus the destination
        bitmask matrix — the form every consumer (simulator, linter,
        service cache) works from.  Cheap: array-backed schedules hand
        back their backing :class:`~repro.core.schedule.ArraySchedule`
        without materialising any per-transmission objects.
        """
        return self.schedule.arrays()

    def rounds(self) -> Tuple[Round, ...]:
        """The object view: one :class:`Round` of transmissions per time.

        Materialised lazily from the array form on first call (and then
        cached on the schedule facade); prefer :meth:`arrays` in
        loops that only need the flat columns.
        """
        return self.schedule.rounds

    @property
    def radius_bound(self) -> int:
        """Theorem 1's guarantee ``n + height`` for this tree."""
        return self.graph.n + self.tree.height

    def execute(
        self,
        *,
        record_arrivals: bool = False,
        on_tree_only: bool = False,
    ) -> "ExecutionResult":
        """Replay the schedule on the simulator; raises if anything breaks.

        The default replay (no flags) is computed once and memoised on
        the plan, so repeated metric queries don't pay simulator cost.

        Parameters
        ----------
        record_arrivals:
            Log every delivery (needed for per-vertex timelines).
        on_tree_only:
            Validate transmissions against the *tree* edges instead of the
            full network — a stricter check, since the paper's algorithms
            only ever use tree edges.
        """
        is_default = not record_arrivals and not on_tree_only
        if is_default and self._default_execution is not None:
            return self._default_execution

        from ..simulator.engine import execute_schedule
        from ..simulator.state import labeled_holdings

        network = tree_to_graph(self.tree) if on_tree_only else self.graph
        result = execute_schedule(
            network,
            self.schedule,
            initial_holds=labeled_holdings(self.labeled.labels()),
            require_complete=True,
            record_arrivals=record_arrivals,
        )
        if is_default:
            object.__setattr__(self, "_default_execution", result)
        return result

    def vertex_completion_times(self) -> Dict[int, int]:
        """Per-vertex first time holding all messages (vertex id keyed).

        Uses the memoised default execution — calling this repeatedly
        (or after :meth:`execute`) costs one simulator run in total.
        """
        result = self.execute()
        return {
            v: t for v, t in enumerate(result.completion_times) if t is not None
        }


def gossip(
    graph: NetworkSpec,
    *,
    algorithm: str = "concurrent-updown",
    tree: Optional[Tree] = None,
) -> GossipPlan:
    """Solve gossiping on ``graph``.

    Parameters
    ----------
    graph:
        A connected network spec: a :class:`Graph`, a :class:`Tree`
        (schedules on exactly that tree), or a topology-family string
        like ``"grid"`` / ``"grid:64"`` (see :func:`resolve_network`).
    algorithm:
        One of :data:`ALGORITHMS` (default the paper's ConcurrentUpDown).
        Keyword-only.
    tree:
        Override the spanning tree (e.g. for the tree-choice ablation);
        by default the minimum-depth spanning tree is built, making the
        schedule at most ``n + radius`` rounds long.  Keyword-only.
    """
    graph, tree = resolve_network(graph, tree=tree)
    if algorithm not in ALGORITHMS:
        raise ReproError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        )
    require_connected(graph, "gossiping")
    if tree is None:
        tree = minimum_depth_spanning_tree(graph)
    labeled = LabeledTree(tree)
    schedule = ALGORITHMS[algorithm](labeled)
    return GossipPlan(
        graph=graph, tree=tree, labeled=labeled, schedule=schedule, algorithm=algorithm
    )


def gossip_on_tree(tree: Tree, *, algorithm: str = "concurrent-updown") -> GossipPlan:
    """Solve gossiping directly on a tree network."""
    return gossip(tree_to_graph(tree), algorithm=algorithm, tree=tree)
