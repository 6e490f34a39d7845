"""The static analysis driver: :func:`lint_schedule`.

The driver reads one run of the possession kernel
(:func:`repro.core.possession.propagate`) as diagnostics, without
importing the engine.  Possession is monotone and delivery timing
deterministic — round ``t``'s sends see exactly the deliveries of
rounds ``< t`` — so the kernel's not-held verdict is the engine's
possession judgement bit for bit (the differential tests in
``tests/lint`` prove both claims).  Unlike the engine the run never
stops: every delivery whose destination and message are in range lands,
so one pass reports every finding.  The rules are reductions over the
kernel's per-row and per-delivery outcome codes and the schedule's
columns; the idle-sender lint reads the hold matrix before each round.

The driver accepts a :class:`~repro.core.schedule.Schedule`, a bare
:class:`~repro.core.schedule.ArraySchedule`, or a raw sequence of
rounds (each an iterable of :class:`~repro.core.schedule.Transmission`).
Raw input matters: the ``Round`` constructor already rejects same-round
sender/receiver collisions, so only raw rounds can reach the
``model/sender-collision`` / ``model/receiver-collision`` rules — which
is exactly how the test suite proves the lint layer agrees with the
constructors' conflict checks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.gossip import GossipPlan
from ..core.possession import (
    COLLISION,
    NON_EDGE,
    NOT_HELD,
    RANGE,
    REDUNDANT,
    Columns,
    PackedHoldState,
    columns_of,
    propagate,
)
from ..core.schedule import ArraySchedule, Round, Schedule, Transmission
from ..exceptions import (
    IncompleteGossipError,
    ModelViolationError,
    ReproError,
    ScheduleConflictError,
    ScheduleError,
)
from ..networks.graph import Graph
from .diagnostics import Diagnostic, LintReport
from . import rules as R

__all__ = ["lint_schedule", "diagnostic_exception", "ScheduleLike"]

#: Anything the driver understands as a schedule: the object view, the
#: canonical array form, or a raw sequence of rounds (each a ``Round``
#: or iterable of transmissions).
ScheduleLike = Union[
    Schedule, ArraySchedule, Sequence[Union[Round, Iterable[Transmission]]]
]

#: Exception class the dynamic layer raises for each model rule —
#: :func:`repro.simulator.validator.check_static` uses this table so the
#: static and dynamic layers cannot drift.
_EXCEPTION_OF_RULE: Dict[str, type] = {
    R.SENDER_COLLISION.id: ScheduleConflictError,
    R.RECEIVER_COLLISION.id: ScheduleConflictError,
    R.VERTEX_RANGE.id: ScheduleError,
    R.MESSAGE_RANGE.id: ScheduleError,
    R.NON_EDGE.id: ModelViolationError,
    R.SEND_WITHOUT_HOLD.id: ModelViolationError,
    R.INCOMPLETE_GOSSIP.id: IncompleteGossipError,
}


def diagnostic_exception(diag: Diagnostic) -> ScheduleError:
    """The typed exception equivalent to one model diagnostic.

    Lets exception-based callers (:mod:`repro.simulator.validator`)
    re-raise lint findings with the historical exception types.
    """
    exc_type = _EXCEPTION_OF_RULE.get(diag.rule, ScheduleError)
    return exc_type(diag.message)


def _initial_holds(
    n: int,
    plan: Optional[GossipPlan],
    initial_holds: Optional[Sequence[int]],
) -> List[int]:
    """Initial possession bitmasks (mirrors the engine's defaults)."""
    if initial_holds is not None:
        holds = [int(h) for h in initial_holds]
        if len(holds) != n:
            raise ReproError(
                f"initial_holds has {len(holds)} entries for a {n}-vertex network"
            )
        return holds
    if plan is not None:
        # Message ids are DFS labels: processor v starts holding label(v).
        return [1 << plan.labeled.label_of(v) for v in range(n)]
    return [1 << v for v in range(n)]


def lint_schedule(
    graph: Graph,
    schedule: ScheduleLike,
    *,
    plan: Optional[GossipPlan] = None,
    initial_holds: Optional[Sequence[int]] = None,
    n_messages: Optional[int] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Iterable[str] = (),
    require_complete: bool = True,
) -> LintReport:
    """Statically analyze ``schedule`` on ``graph`` without executing it.

    Parameters
    ----------
    graph:
        The communication network the schedule claims to run on.
    schedule:
        A :class:`~repro.core.schedule.Schedule`, a bare
        :class:`~repro.core.schedule.ArraySchedule`, or a raw sequence
        of rounds (each a ``Round`` or an iterable of ``Transmission``)
        for material the constructors would reject outright.
    plan:
        The :class:`~repro.core.gossip.GossipPlan` that produced the
        schedule, when available.  Supplies the DFS labelling (initial
        holdings and message-id semantics), the tree (the ``n + r``
        certificate), and — for ``concurrent-updown`` plans — enables
        the ``paper`` rule tier.
    initial_holds:
        Explicit initial possession bitmasks (overrides the plan's
        labelling; defaults to "processor ``v`` holds message ``v``").
    n_messages:
        Total distinct messages (defaults to ``graph.n``, like the
        engine).
    select / ignore:
        Rule ids or tier names to run / to skip.  ``select=None`` runs
        the ``model`` and ``efficiency`` tiers, plus ``paper`` when
        ``plan`` is a ConcurrentUpDown plan.  Selecting a ``paper`` rule
        explicitly without a ``plan`` raises
        :class:`~repro.exceptions.ReproError`.
    require_complete:
        Whether ``model/incomplete-gossip`` may fire (mirrors the
        dynamic validator's flag).

    Returns
    -------
    LintReport
        Every finding of every active rule, in round order.
    """
    cols = columns_of(schedule)
    n = graph.n
    n_msgs = int(n_messages) if n_messages is not None else n

    default_tiers = [R.MODEL, R.EFFICIENCY]
    if plan is not None and plan.algorithm == "concurrent-updown":
        default_tiers.append(R.PAPER)
    active = R.expand_selection(select, default_tiers=default_tiers)
    active -= R.expand_selection(ignore, default_tiers=())
    if plan is None and any(R.RULES[r].tier == R.PAPER for r in active):
        # Paper rules can only be active here via an explicit selection
        # (the default only adds them when a ConcurrentUpDown plan is
        # given), and they are meaningless without the producing plan.
        raise ReproError(
            "paper-invariant rules need the producing plan; "
            "pass plan= to lint_schedule"
        )
    if not require_complete:
        active -= {R.INCOMPLETE_GOSSIP.id}

    ctx = _Pass(graph, cols, n_msgs, _initial_holds(n, plan, initial_holds), active)
    ctx.run()
    if plan is not None and any(R.RULES[r].tier == R.PAPER for r in active):
        ctx.check_paper(plan)
    ctx.check_budget(plan)

    name = (
        schedule.name
        if isinstance(schedule, (Schedule, ArraySchedule))
        else ""
    )
    return LintReport(
        diagnostics=tuple(ctx.diagnostics),
        rules_run=tuple(sorted(active)),
        name=name,
    )


class _Pass:
    """One possession-kernel run over the schedule, read as diagnostics.

    The per-round findings (redundant landings, idle rounds, the model
    rules of each send, idle senders) are gathered with a sort key
    ``(round, section, ...)`` and rendered in round order: a round's
    landings first, then an idle round, then its sends in row order
    (sender findings, then each destination ascending), then its idle
    senders.
    """

    def __init__(
        self,
        graph: Graph,
        cols: Columns,
        n_messages: int,
        holds: List[int],
        active: FrozenSet[str],
    ) -> None:
        self.graph = graph
        self.cols = cols
        self.n = graph.n
        self.n_messages = n_messages
        self.active = active
        self.holds = PackedHoldState(self.n, initial=holds, n_messages=n_messages)
        self.diagnostics: List[Diagnostic] = []
        self._keyed: List[Tuple[tuple, Diagnostic]] = []
        self.ptr = cols.round_ptr
        #: deliveries of row ``i`` are ``row_pairs[i]:row_pairs[i + 1]``.
        self.row_pairs = np.searchsorted(cols.pair_row, np.arange(len(cols.round) + 1))
        self.sender_ok = (cols.sender >= 0) & (cols.sender < self.n)
        self.message_ok = (cols.message >= 0) & (cols.message < n_messages)
        self.dest_ok = (cols.pair_dest >= 0) & (cols.pair_dest < self.n)

    # ------------------------------------------------------------------
    def emit(
        self, rule: R.Rule, message: str, *, key: Optional[tuple] = None, **locus: Optional[int]
    ) -> None:
        """Record a finding if the rule is active (``key``: a per-round one)."""
        if rule.id not in self.active:
            return
        diag = Diagnostic(rule=rule.id, severity=rule.severity, message=message, **locus)  # type: ignore[arg-type]
        if key is None:
            self.diagnostics.append(diag)
        else:
            self._keyed.append((key, diag))

    def _row(self, i: int) -> Tuple[int, int, int]:
        cols = self.cols
        return int(cols.round[i]), int(cols.sender[i]), int(cols.message[i])

    # ------------------------------------------------------------------
    def run(self) -> None:
        """The kernel run plus the model and efficiency tiers."""
        hook = self._idle_senders if R.IDLE_SENDER.id in self.active else None
        if hook is not None:
            # Neighbours in frozenset iteration order: the order in which
            # the finding has always picked the free neighbour it names.
            edges = [(v, u) for v in range(self.n) for u in frozenset(self.graph.neighbors(v))]
            ev, eu = np.array(edges, dtype=np.int64).reshape(-1, 2).T
            # Per round and edge (v, u): v sends nothing and u receives nothing.
            cols, rounds = self.cols, self.cols.total_time
            sending = np.zeros((rounds, self.n), dtype=bool)
            sending[cols.round[self.sender_ok], cols.sender[self.sender_ok]] = True
            receiving = np.zeros((rounds, self.n), dtype=bool)
            ok = self.dest_ok
            receiving[cols.round[cols.pair_row[ok]], cols.pair_dest[ok]] = True
            t_free, e_free = np.nonzero(~sending[:, ev] & ~receiving[:, eu])
            self._free_ptr = np.searchsorted(t_free, np.arange(rounds + 1)).tolist()
            self._free_v, self._free_u = ev[e_free], eu[e_free]
            self._silent = (np.diff(self.ptr) == 0).tolist()
        self.out = propagate(self.cols, self.graph, self.holds, before_send=hook)
        self._check_redundant()
        self._check_idle_rounds()
        self._check_sends()
        self._keyed.sort(key=lambda kd: kd[0])
        self.diagnostics.extend(diag for _, diag in self._keyed)
        self._check_completeness()
        self._check_mergeable()

    def _check_redundant(self) -> None:
        if R.REDUNDANT_DELIVERY.id not in self.active:
            return
        cols = self.cols
        for j in np.flatnonzero(self.out.pair_code & REDUNDANT).tolist():
            t, s, m = self._row(int(cols.pair_row[j]))
            d = int(cols.pair_dest[j])
            self.emit(
                R.REDUNDANT_DELIVERY,
                f"round {t}: processor {s} delivers message "
                f"{m} to {d}, which already holds it",
                key=(t + 1, 0, j),
                round=t, sender=s, message_id=m, destination=d,
            )

    def _check_idle_rounds(self) -> None:
        if R.IDLE_ROUND.id not in self.active:
            return
        # Every round but the last: a silent final round is not idle.
        for t in np.flatnonzero(np.diff(self.ptr)[:-1] == 0).tolist():
            self.emit(
                R.IDLE_ROUND,
                f"round {t} performs no communication but later rounds do",
                key=(t, 1), round=t,
            )

    def _check_sends(self) -> None:
        """The model rules of every send, from the kernel's outcome codes."""
        cols, out = self.cols, self.out
        for i in np.flatnonzero(out.row_code).tolist():
            t, s, m = self._row(i)
            code = int(out.row_code[i])
            if not self.sender_ok[i]:
                self.emit(
                    R.VERTEX_RANGE,
                    f"round {t}: sender {s} out of range for n={self.n}",
                    key=(t, 2, i, 0), round=t, sender=s, message_id=m,
                )
            elif code & COLLISION:
                lo = int(self.ptr[t])
                first = lo + int(np.flatnonzero(cols.sender[lo:i] == s)[0])
                self.emit(
                    R.SENDER_COLLISION,
                    f"round {t}: processor {s} sends two messages in one round: "
                    f"{int(cols.message[first])} and {m}",
                    key=(t, 2, i, 0), round=t, sender=s, message_id=m,
                )
            if not self.message_ok[i]:
                self.emit(
                    R.MESSAGE_RANGE,
                    f"round {t}: message {m} out of range for "
                    f"n_messages={self.n_messages}",
                    key=(t, 2, i, 1), round=t, sender=s, message_id=m,
                )
            elif code & NOT_HELD and self.sender_ok[i]:
                self.emit(
                    R.SEND_WITHOUT_HOLD,
                    f"round {t}: processor {s} sends message {m} it cannot "
                    f"hold yet",
                    key=(t, 2, i, 2), round=t, sender=s, message_id=m,
                )
        for j in np.flatnonzero(out.pair_code & (RANGE | COLLISION | NON_EDGE)).tolist():
            i = int(cols.pair_row[j])
            t, s, m = self._row(i)
            d, code = int(cols.pair_dest[j]), int(out.pair_code[j])
            if code & RANGE:
                self.emit(
                    R.VERTEX_RANGE,
                    f"round {t}: destination {d} out of range for n={self.n}",
                    key=(t, 2, i, 3, j, 0),
                    round=t, sender=s, message_id=m, destination=d,
                )
                continue
            if code & COLLISION:
                lo = int(self.row_pairs[self.ptr[t]])
                first = lo + int(np.flatnonzero(cols.pair_dest[lo:j] == d)[0])
                self.emit(
                    R.RECEIVER_COLLISION,
                    f"round {t}: processor {d} receives two messages in "
                    f"one round: {int(cols.message[cols.pair_row[first]])} and {m}",
                    key=(t, 2, i, 3, j, 1),
                    round=t, sender=s, message_id=m, destination=d,
                )
            if code & NON_EDGE:
                self.emit(
                    R.NON_EDGE,
                    f"round {t}: transmission {s} -> {d} does not follow "
                    f"an edge of the network",
                    key=(t, 2, i, 3, j, 2),
                    round=t, sender=s, message_id=m, destination=d,
                )

    def _idle_senders(self, t: int, holds: PackedHoldState) -> None:
        """Flag processors that could legally deliver in round ``t`` but don't."""
        if self._silent[t]:
            return  # the idle-round lint already covers fully-silent rounds
        f0, f1 = self._free_ptr[t], self._free_ptr[t + 1]
        ev, eu = self._free_v[f0:f1], self._free_u[f0:f1]
        gap = (holds.bits[ev] & ~holds.bits[eu]).any(axis=1)
        ev, eu = ev[gap], eu[gap]
        # One finding per idle processor: its first free neighbour missing something.
        first = np.ones(len(ev), dtype=bool)
        first[1:] = ev[1:] != ev[:-1]
        for v, u in zip(ev[first].tolist(), eu[first].tolist()):
            missing = holds.row_int(v) & ~holds.row_int(u)
            self.emit(
                R.IDLE_SENDER,
                f"round {t}: processor {v} is idle but holds message "
                f"{(missing & -missing).bit_length() - 1} its free neighbour {u} misses",
                key=(t, 3, v), round=t, sender=v,
            )

    def _check_completeness(self) -> None:
        if R.INCOMPLETE_GOSSIP.id not in self.active:
            return
        holds = self.holds
        missing = {
            int(v): tuple(holds.missing_of(v))
            for v in np.flatnonzero(~holds.complete_mask())
        }
        if missing:
            self.emit(
                R.INCOMPLETE_GOSSIP,
                f"gossip incomplete after {self.cols.total_time} rounds; "
                f"missing: {missing}",
            )

    def _check_mergeable(self) -> None:
        """Repeat sends of one (sender, message) that an earlier multicast
        could have absorbed — fan-out waste, not a model violation."""
        if R.UNICAST_MERGEABLE.id not in self.active:
            return
        cols, pairs = self.cols, self.row_pairs
        rows = np.flatnonzero(self.sender_ok & self.message_ok)
        keys = cols.sender[rows] * self.n_messages + cols.message[rows]
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        repeat = counts[inverse] > 1
        # Groups of one (sender, message), in order of their first send.
        groups: Dict[int, List[int]] = {}
        for key, i in zip(inverse[repeat].tolist(), rows[repeat].tolist()):
            groups.setdefault(key, []).append(i)
        for i0, *later in groups.values():
            t0, s, m = self._row(i0)
            dests0 = set(cols.pair_dest[pairs[i0] : pairs[i0 + 1]].tolist())
            plo, phi = pairs[self.ptr[t0]], pairs[self.ptr[t0 + 1]]
            busy_at_t0 = set(cols.pair_dest[plo:phi][self.dest_ok[plo:phi]].tolist())
            for i1 in later:
                extra = set(cols.pair_dest[pairs[i1] : pairs[i1 + 1]].tolist()) - dests0
                if extra and not extra & busy_at_t0:
                    t1 = int(cols.round[i1])
                    self.emit(
                        R.UNICAST_MERGEABLE,
                        f"round {t1}: processor {s} re-sends message {m}; the "
                        f"destinations {sorted(extra)} were free in round {t0} "
                        f"and could have joined that multicast",
                        round=t1, sender=s, message_id=m,
                    )

    # ------------------------------------------------------------------
    def check_budget(self, plan: Optional[GossipPlan]) -> None:
        """The ``n + r`` certificate lint (efficiency tier)."""
        if R.OVER_BUDGET.id not in self.active or not self.cols.total_time:
            return
        if plan is not None:
            r = plan.tree.height
        else:
            from ..networks.properties import radius

            r = radius(self.graph)
        budget = self.n + r
        total = self.cols.total_time
        if total > budget:
            self.emit(
                R.OVER_BUDGET,
                f"schedule takes {total} rounds, beyond the n + r = "
                f"{self.n} + {r} = {budget} certificate",
                round=budget,
            )

    # ------------------------------------------------------------------
    # Paper-invariant tier (ConcurrentUpDown structural rules)
    # ------------------------------------------------------------------
    def check_paper(self, plan: GossipPlan) -> None:
        tree, labeled = plan.tree, plan.labeled
        self._check_label_contiguity(plan)

        cols = self.cols
        parent = np.asarray(tree.parents(), dtype=np.int64)
        lo, hi = labeled.arrays.i, labeled.arrays.j  # each vertex's subtree interval
        rows = cols.pair_row
        s, m, d = cols.sender[rows], cols.message[rows], cols.pair_dest
        j = np.flatnonzero(
            (s >= 0) & (s < tree.n) & self.message_ok[rows] & (d >= 0) & (d < tree.n)
        )
        s, m, d, t = s[j], m[j], d[j], cols.round[rows[j]]
        up = parent[s] == d
        down = ~up & (parent[d] == s)
        outside = up & ((m < lo[s]) | (m > hi[s]))
        backflow = down & (lo[d] <= m) & (m <= hi[d])
        for k in np.flatnonzero(outside | backflow | ~(up | down)).tolist():
            tk, sk, mk, dk = int(t[k]), int(s[k]), int(m[k]), int(d[k])
            if outside[k]:
                self.emit(
                    R.UP_MONOTONE,
                    f"round {tk}: processor {sk} sends message {mk} "
                    f"up to its parent, outside its subtree "
                    f"interval [{lo[sk]}, {hi[sk]}]",
                    round=tk, sender=sk, message_id=mk, destination=dk,
                )
            elif backflow[k]:
                self.emit(
                    R.DOWN_NO_BACKFLOW,
                    f"round {tk}: processor {sk} sends message {mk} "
                    f"down into the subtree of child {dk} that "
                    f"originated it (interval [{lo[dk]}, {hi[dk]}])",
                    round=tk, sender=sk, message_id=mk, destination=dk,
                )
            elif not up[k]:
                self.emit(
                    R.TREE_EDGE,
                    f"round {tk}: transmission {sk} -> {dk} is not a "
                    f"tree parent-child edge",
                    round=tk, sender=sk, message_id=mk, destination=dk,
                )

        # Each processor's up-sends, processors in order of their first
        # one, each sorted by (round, message): the labels must rise.
        s, t, m = s[up], t[up], m[up]
        _, first, inverse = np.unique(s, return_index=True, return_inverse=True)
        order = np.lexsort((m, t, first[inverse]))
        s, t, m = s[order], t[order], m[order]
        for k in np.flatnonzero((s[1:] == s[:-1]) & (m[1:] <= m[:-1])).tolist():
            self.emit(
                R.UP_MONOTONE,
                f"round {int(t[k + 1])}: processor {int(s[k])} sends message "
                f"{int(m[k + 1])} up after message {int(m[k])} (round "
                f"{int(t[k])}); the up-phase must be label-monotone",
                round=int(t[k + 1]), sender=int(s[k]), message_id=int(m[k + 1]),
            )

        if R.ROOT_COMPLETE.id in self.active and tree.n >= 1:
            root_done = self.holds.completion_times()[tree.root]
            if root_done is None or root_done > tree.n:
                when = "never" if root_done is None else f"at round {root_done}"
                self.emit(
                    R.ROOT_COMPLETE,
                    f"root {tree.root} holds all {self.n_messages} messages "
                    f"{when}, not by round n = {tree.n}",
                    round=None if root_done is None else root_done,
                )

        if R.LENGTH_CERTIFICATE.id in self.active:
            expected = tree.n + tree.height if tree.n >= 2 else 0
            total = self.cols.total_time
            if total != expected:
                self.emit(
                    R.LENGTH_CERTIFICATE,
                    f"schedule takes {total} rounds; Theorem 1 certifies "
                    f"exactly n + r = {tree.n} + {tree.height} = {expected}",
                    round=total,
                )

    def _check_label_contiguity(self, plan: GossipPlan) -> None:
        """Re-derive the DFS interval invariants instead of trusting them."""
        if R.LABEL_CONTIGUITY.id not in self.active:
            return
        tree, labeled = plan.tree, plan.labeled
        labels = labeled.labels()
        if sorted(labels) != list(range(tree.n)):
            self.emit(
                R.LABEL_CONTIGUITY,
                f"labels {labels} are not a permutation of 0..{tree.n - 1}",
            )
            return
        # Independent j (max label in subtree), deepest-first aggregation.
        j_of = list(labels)
        for v in sorted(range(tree.n), key=tree.level, reverse=True):
            p = tree.parent(v)
            if p >= 0 and j_of[v] > j_of[p]:
                j_of[p] = j_of[v]
        for v in range(tree.n):
            blk = labeled.block(v)
            if blk.i != labels[v] or blk.j != j_of[v]:
                self.emit(
                    R.LABEL_CONTIGUITY,
                    f"vertex {v} advertises interval [{blk.i}, {blk.j}] but "
                    f"its subtree spans [{labels[v]}, {j_of[v]}]",
                    sender=v,
                )
                continue
            cursor = blk.i + 1
            for c in tree.children(v):
                cb = labeled.block(c)
                if cb.i != cursor:
                    self.emit(
                        R.LABEL_CONTIGUITY,
                        f"child {c} of vertex {v} starts at label {cb.i}, "
                        f"expected {cursor} (intervals must be contiguous)",
                        sender=v, destination=c,
                    )
                    break
                cursor = cb.j + 1
            else:
                if tree.children(v) and cursor != blk.j + 1:
                    self.emit(
                        R.LABEL_CONTIGUITY,
                        f"children of vertex {v} end at label {cursor - 1}, "
                        f"expected {blk.j}",
                        sender=v,
                    )
