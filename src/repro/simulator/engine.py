"""Synchronous round-based execution of communication schedules.

This is the library's ground truth: a schedule is *correct* iff this
engine, which enforces exactly the two communication rules of Section 1,
executes it without violations and ends with every processor holding
every message.

Model recap (paper Section 1):

1. per round each processor receives at most one message — enforced
   structurally by :class:`~repro.core.schedule.Round`;
2. per round each processor sends at most one held message, multicast to
   a subset of its *adjacent* processors — adjacency and possession are
   enforced here;
3. receive happens before send: a message delivered at time ``t`` (sent
   in round ``t - 1``) may be forwarded in round ``t``.

Execution is one run of the possession kernel
(:func:`repro.core.possession.propagate`) that stops in the first round
with a violation; the engine raises that round's first offending row's
violation — a possession gap before a non-adjacent destination,
destinations ascending.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.possession import (
    NON_EDGE,
    NOT_HELD,
    RANGE,
    VIOLATIONS,
    Outcome,
    PackedHoldState,
    columns_of,
    propagate,
)
from ..core.schedule import ArraySchedule, Schedule
from ..exceptions import IncompleteGossipError, ModelViolationError
from ..networks.graph import Graph

__all__ = ["ExecutionResult", "execute_schedule", "ArrivalEvent"]


@dataclass(frozen=True)
class ArrivalEvent:
    """One delivery: ``message`` reached ``receiver`` from ``sender`` at ``time``."""

    time: int
    receiver: int
    sender: int
    message: int


@dataclass
class ExecutionResult:
    """Everything observable about one schedule execution.

    Attributes
    ----------
    complete:
        Whether every processor ended up holding every message.
    total_time:
        The schedule's total communication time (number of rounds).
    completion_times:
        Per-processor first time holding all messages (``None`` if never).
    duplicate_deliveries:
        Deliveries of messages the receiver already had (model-legal waste).
    final_holds:
        Final hold bitsets, one per processor.
    arrivals:
        Full delivery log when ``record_arrivals=True`` was requested,
        otherwise empty.  This is what the table reproductions consume.
    """

    complete: bool
    total_time: int
    completion_times: List[Optional[int]]
    duplicate_deliveries: int
    final_holds: List[int]
    arrivals: List[ArrivalEvent] = field(default_factory=list)

    @property
    def makespan(self) -> Optional[int]:
        """Latest completion time over all processors.

        ``None`` when the run is incomplete (some processor never held
        every message) — distinguishable from the legitimate ``0`` of a
        trivial run where every processor starts complete.
        """
        if not self.complete:
            return None
        return max(t for t in self.completion_times if t is not None)


def execute_schedule(
    graph: Graph,
    schedule: "Schedule | ArraySchedule",
    initial_holds: Optional[Sequence[int]] = None,
    n_messages: Optional[int] = None,
    require_complete: bool = False,
    record_arrivals: bool = False,
) -> ExecutionResult:
    """Run ``schedule`` on ``graph`` and report what happened.

    Parameters
    ----------
    graph:
        The communication network.  Every transmission must travel along
        edges of this graph (multicast = one message to any subset of the
        sender's neighbours).
    schedule:
        The rounds to execute — a :class:`Schedule` or a bare
        :class:`ArraySchedule`.  Structural per-round rules were already
        checked at :class:`~repro.core.schedule.Round` or
        :class:`ArraySchedule` construction.
    initial_holds:
        Initial hold bitsets; defaults to "processor ``v`` holds message
        ``v``".  Pass :func:`repro.simulator.state.labeled_holdings` when
        executing schedules that use DFS labels as message ids.
    n_messages:
        Total number of distinct messages (defaults to ``graph.n``).
    require_complete:
        When true, raise :class:`~repro.exceptions.IncompleteGossipError`
        unless gossip finished.
    record_arrivals:
        When true, log every delivery (needed by the table benchmarks).

    Raises
    ------
    ModelViolationError
        A sender transmits a message it does not hold (message ids
        outside ``[0, n_messages)`` are never held), or to a
        non-neighbour.
    IncompleteGossipError
        Only with ``require_complete=True``.
    """
    holds = PackedHoldState(graph.n, initial=initial_holds, n_messages=n_messages)
    out = propagate(columns_of(schedule), graph, holds, stop_on=VIOLATIONS)
    if out.violation is not None:
        raise row_violation(out, out.violation)
    final_time = out.columns.total_time
    if require_complete and not holds.all_complete():
        missing = {
            int(v): holds.missing_of(v) for v in np.flatnonzero(~holds.complete_mask())
        }
        raise IncompleteGossipError(
            f"gossip incomplete after {final_time} rounds; missing: {missing}"
        )
    return ExecutionResult(
        complete=holds.all_complete(),
        total_time=final_time,
        completion_times=holds.completion_times(),
        duplicate_deliveries=holds.duplicate_deliveries,
        final_holds=holds.snapshot(),
        arrivals=arrival_log(out) if record_arrivals else [],
    )


def arrival_log(out: Outcome) -> List[ArrivalEvent]:
    """Every delivery that landed in a kernel run, in landing order."""
    cols, landed = out.columns, np.flatnonzero(out.landed)
    rows = cols.pair_row[landed]
    columns = (cols.round[rows] + 1, cols.pair_dest[landed], cols.sender[rows], cols.message[rows])
    return [ArrivalEvent(*event) for event in zip(*(c.tolist() for c in columns))]


def row_violation(out: Outcome, i: int, *, possession: bool = True) -> ModelViolationError:
    """The error for row ``i`` of a kernel run: a sender that is not a
    processor, then (with ``possession``) a message the sender does not
    hold, then the row's first destination that is not adjacent."""
    cols, holds = out.columns, out.holds
    t, s, m = int(cols.round[i]), int(cols.sender[i]), int(cols.message[i])
    if out.row_code[i] & RANGE:
        return ModelViolationError(
            f"at time {t} processor {s} sends message {m} but is not one of "
            f"the {holds.n} processors"
        )
    if possession and out.row_code[i] & NOT_HELD:
        return ModelViolationError(
            f"at time {t} processor {s} sends message {m} "
            f"it does not hold (holds {holds.messages_of(s)})"
        )
    lo, hi = np.searchsorted(cols.pair_row, (i, i + 1))
    stray = lo + np.flatnonzero(out.pair_code[lo:hi] & (NON_EDGE | RANGE))
    return ModelViolationError(
        f"at time {t} processor {s} multicasts to {int(cols.pair_dest[stray[0]])}, "
        "which is not an adjacent processor"
    )
