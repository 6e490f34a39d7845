"""Ablations of ConcurrentUpDown's design choices (see DESIGN.md §6).

The paper justifies sending the lookahead (lip) message at time 0 with a
worked argument: were it sent "at the latest time" like every other
body message, the upward stream would collide with the downward stream
and messages would get stuck at every level, as in the earlier
algorithms [12], [15].  This module makes that argument executable:

* :func:`propagate_up_no_lip` — step (U4) without the (U3) lookahead:
  every body message ``m`` (including the s-message) climbs at time
  ``m - k``.  On its own this is still feasible (the root still receives
  message ``m`` at time ``m``).
* :func:`concurrent_updown_no_lip` — overlapping the lazy variant with
  Propagate-Down.  For any tree containing a vertex with ``i > k`` and a
  non-leaf child this **raises**
  :class:`~repro.exceptions.ScheduleConflictError`: the child's
  lookahead now arrives at time ``i - k + 1``, exactly when the parent's
  (D3) stream delivers an o-message — the collision the paper describes.
* :func:`no_lip_penalty` — the constructive fallback: schedule the same
  tree with the no-lookahead greedy policy (the UpDown reconstruction)
  and report how many rounds beyond ``n + r`` the absence of the trick
  costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ScheduleConflictError
from ..tree.labeling import LabeledTree
from .propagate_down import propagate_down_builder
from .schedule import Schedule, ScheduleBuilder

__all__ = [
    "propagate_up_no_lip",
    "concurrent_updown_no_lip",
    "NoLipPenalty",
    "no_lip_penalty",
]


def propagate_up_no_lip(labeled: LabeledTree) -> Schedule:
    """Propagate-Up without the time-0 lookahead.

    Every body message ``m`` of every nonroot vertex is sent to the
    parent at time ``m - k`` ("the latest time", per the paper's
    counterfactual).  Feasible in isolation — Lemma 2's timing still
    holds — but incompatible with Propagate-Down.
    """
    builder = ScheduleBuilder()
    tree = labeled.tree
    for v in range(labeled.n):
        if tree.is_root(v):
            continue
        block = labeled.block(v)
        for m in range(block.i, block.j + 1):
            builder.send(m - block.k, v, m, (tree.parent(v),))
    return builder.build(name="Propagate-Up-no-lip")


def concurrent_updown_no_lip(labeled: LabeledTree) -> Schedule:
    """The lazy-lookahead overlap — raises on the paper's collision.

    Raises
    ------
    ScheduleConflictError
        Whenever the tree has an internal vertex whose first child is
        itself internal (every interesting tree), because the lookahead's
        arrival now lands on a busy receive slot.
    """
    up = ScheduleBuilder.from_schedule(propagate_up_no_lip(labeled))
    down = propagate_down_builder(labeled)
    return up.merge(down).build(name="ConcurrentUpDown-no-lip")


@dataclass(frozen=True)
class NoLipPenalty:
    """Outcome of the no-lip ablation on one tree.

    Attributes
    ----------
    conflicts:
        Whether the naive overlap raises (the paper's stuck-message
        collision).
    with_lip_time:
        ConcurrentUpDown's total time (= ``n + height``).
    without_lip_time:
        Total time of the no-lookahead greedy fallback.
    """

    conflicts: bool
    with_lip_time: int
    without_lip_time: int

    @property
    def extra_rounds(self) -> int:
        """Rounds lost by dropping the lookahead trick."""
        return self.without_lip_time - self.with_lip_time


def no_lip_penalty(labeled: LabeledTree) -> NoLipPenalty:
    """Measure what the (U3) lookahead buys on one tree."""
    from .concurrent_updown import concurrent_updown
    from .store_forward import greedy_updown_gossip

    try:
        concurrent_updown_no_lip(labeled)
        conflicts = False
    except ScheduleConflictError:
        conflicts = True
    return NoLipPenalty(
        conflicts=conflicts,
        with_lip_time=concurrent_updown(labeled).total_time,
        without_lip_time=greedy_updown_gossip(labeled).total_time,
    )
