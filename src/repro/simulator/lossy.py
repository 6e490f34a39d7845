"""Lossy execution — running schedules under a runtime fault model.

:mod:`repro.simulator.faults` perturbs *schedules* to prove the
validator catches malformed input; this module instead perturbs the
*execution*: the schedule is perfectly legal, but the network drops
deliveries, links blink out for whole rounds, and processors crash for
transient windows.  This is the regime the related gossip literature
(pipelined gossiping, algebraic gossip) actually targets, and the
substrate :mod:`repro.core.recovery` repairs on top of.

Determinism is the load-bearing property.  Every fault decision is a
pure function of ``(model.seed, kind, round, endpoints)`` through the
splitmix64 draws of :mod:`repro.core.rng`, so:

* a run is byte-for-byte reproducible for a fixed seed, on any platform,
  regardless of iteration order;
* *extending* a schedule (appending repair rounds) replays the original
  prefix identically — the recovery loop relies on this to re-execute
  the full repaired schedule and land in exactly the state it diagnosed;
* a retransmission of the same delivery in a *later* round gets a fresh
  , independent draw (the round index is part of the hash), so repair
  attempts are not doomed to repeat the original loss.

Execution is one run of the possession kernel
(:func:`repro.core.possession.propagate`): no fault decision depends on
possession, so every fault is drawn up front (drops vectorised) and the
kernel only adds the possession gaps.  Under a fault-free model
(:attr:`FaultModel.is_null`) every observable field matches
:func:`~repro.simulator.engine.execute_schedule` (property-tested in
``tests/property/test_property_lossy.py``).

Fault semantics, applied to the round sent at time ``t``:

* **sender fail-stop** — a processor that permanently crashed at or
  before ``t`` sends nothing, ever again;
* **sender crash** — a processor inside a transient crash window at
  ``t`` sends nothing; its whole multicast is suppressed;
* **possession gap** — a sender that (because of earlier losses) does
  not hold the scheduled message sends nothing; in a lossy world this
  is not a model violation, it is a consequence of the faults, and it
  is recorded as a suppressed send.  Adjacency violations are still
  hard errors: faults never excuse a malformed schedule;
* **receiver fail-stop** — a processor that permanently crashed at or
  before ``t`` receives nothing, ever again;
* **link failure** — a link that permanently failed at or before ``t``
  loses every delivery crossing it from then on;
* **link outage** — a link down for round ``t`` loses every delivery
  crossing it that round;
* **receiver crash** — a processor inside a transient crash window at
  ``t`` receives nothing that round;
* **delivery drop** — each surviving delivery is lost independently
  with probability ``drop_rate``.

Permanent failures (``fail_stop_rate`` / ``link_fail_rate``) are
*per-round hazards*: at every round each live processor (each intact
link) independently fail-stops with the given probability, and once the
first failing round is drawn the processor (link) stays dead for the
rest of the run.  Hazard draws are pure functions of
``(seed, round, endpoints)`` like every other fault decision, so the
determinism contract above carries over unchanged — extending a
schedule never rewrites who died in the prefix.  Both checks are
evaluated *at send time* (a delivery in flight when its receiver dies
still lands), matching the transient-crash convention.

The residual network after permanent failures is what
:mod:`repro.core.survival` diagnoses and replans over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..core.possession import (
    NON_EDGE,
    NOT_HELD,
    RANGE,
    Columns,
    PackedHoldState,
    columns_of,
    propagate,
)
from ..core.rng import keyed_uniform, keyed_uniform_array
from ..core.schedule import Schedule
from ..exceptions import SimulationError
from ..networks.graph import Graph
from .engine import ArrivalEvent, ExecutionResult, arrival_log, row_violation
from .state import bits_of

__all__ = [
    "FaultModel",
    "LostDelivery",
    "SuppressedSend",
    "FaultyExecutionResult",
    "execute_with_faults",
]

_R = TypeVar("_R")

# Domain-separation tags so a delivery draw never collides with a link
# or crash draw at the same coordinates.
_TAG_DROP = 0xD09
_TAG_LINK = 0x11F
_TAG_CRASH = 0xC9A
_TAG_FAIL_STOP = 0xF57
_TAG_LINK_FAIL = 0x1F1

#: Why a multicast never happened: the codes ``_sender_faults`` draws,
#: then the possession gap the kernel finds.
_SEND_REASONS = ("", "sender-fail-stop", "sender-crash", "not-held")
#: Why a delivery was lost, by the code ``_delivery_losses`` draws.
_LOSS_REASONS = (
    "", "receiver-fail-stop", "link-fail", "link-outage", "receiver-crash", "drop",
)


@dataclass(frozen=True)
class FaultModel:
    """A seeded, deterministic runtime fault model.

    Attributes
    ----------
    seed:
        Root seed; every fault decision is a pure function of it.
    drop_rate:
        Independent per-delivery loss probability.
    link_outage_rate:
        Per-round, per-link probability that the link is down for that
        whole round (all deliveries crossing it are lost).
    crash_rate:
        Per-round, per-processor probability that a transient crash
        window *starts* that round.
    crash_length:
        Length of a crash window in rounds; while crashed a processor
        neither sends nor receives.
    fail_stop_rate:
        Per-round, per-processor probability that the processor
        *permanently* crashes that round (a fail-stop failure: once
        crashed it never sends or receives again).
    link_fail_rate:
        Per-round, per-link probability that the link *permanently*
        fails that round (every later delivery crossing it is lost).
    """

    seed: int = 0
    drop_rate: float = 0.0
    link_outage_rate: float = 0.0
    crash_rate: float = 0.0
    crash_length: int = 1
    fail_stop_rate: float = 0.0
    link_fail_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "drop_rate",
            "link_outage_rate",
            "crash_rate",
            "fail_stop_rate",
            "link_fail_rate",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise SimulationError(f"{name}={p} is not a probability")
        if self.crash_length < 1:
            raise SimulationError("crash_length must be >= 1")
        # Determinism-preserving memo caches (never part of the value:
        # excluded from dataclass eq/hash/repr).  Every cached entry is a
        # pure function of the frozen fields, so a cache hit and a fresh
        # draw are indistinguishable.
        object.__setattr__(self, "_crash_window_starts", {})
        object.__setattr__(self, "_fail_stop_first", {})
        object.__setattr__(self, "_fail_stop_scanned", {})
        object.__setattr__(self, "_link_fail_first", {})
        object.__setattr__(self, "_link_fail_scanned", {})

    @property
    def is_null(self) -> bool:
        """Whether this model can never inject a fault."""
        return (
            self.drop_rate == 0.0
            and self.link_outage_rate == 0.0
            and self.crash_rate == 0.0
            and self.fail_stop_rate == 0.0
            and self.link_fail_rate == 0.0
        )

    @property
    def has_permanent(self) -> bool:
        """Whether the model can kill processors or links for good.

        Permanent failures invalidate the recovery contract ("a nearest
        holder always exists"); :func:`repro.core.recovery.recover`
        checks this to diagnose partitions *before* spending its repair
        budget, and :mod:`repro.core.survival` is the layer that handles
        the residue.
        """
        return self.fail_stop_rate > 0.0 or self.link_fail_rate > 0.0

    # ------------------------------------------------------------------
    def drops_delivery(self, time: int, sender: int, receiver: int) -> bool:
        """Whether the delivery ``sender -> receiver`` sent at ``time`` is lost."""
        if self.drop_rate == 0.0:
            return False
        return keyed_uniform(self.seed, _TAG_DROP, time, sender, receiver) < self.drop_rate

    def drops_deliveries(
        self, time: np.ndarray, sender: np.ndarray, receiver: np.ndarray
    ) -> np.ndarray:
        """:meth:`drops_delivery` over delivery columns, one draw each."""
        if self.drop_rate == 0.0:
            return np.zeros(len(time), dtype=bool)
        return (
            keyed_uniform_array(self.seed, _TAG_DROP, time, sender, receiver)
            < self.drop_rate
        )

    def link_out(self, time: int, u: int, v: int) -> bool:
        """Whether the (undirected) link ``{u, v}`` is down for round ``time``."""
        if self.link_outage_rate == 0.0:
            return False
        a, b = (u, v) if u < v else (v, u)
        return keyed_uniform(self.seed, _TAG_LINK, time, a, b) < self.link_outage_rate

    def crashed(self, time: int, v: int) -> bool:
        """Whether processor ``v`` is inside a transient crash window at ``time``.

        Window-start draws are memoised per ``(start, v)``: the per-round
        execution hot path queries overlapping windows for every sender
        and every delivery target, and without the cache each query
        re-hashed ``crash_length`` seeds.
        """
        if self.crash_rate == 0.0:
            return False
        starts = self._crash_window_starts
        for start in range(max(0, time - self.crash_length + 1), time + 1):
            key = (start, v)
            hit = starts.get(key)
            if hit is None:
                hit = keyed_uniform(self.seed, _TAG_CRASH, start, v) < self.crash_rate
                starts[key] = hit
            if hit:
                return True
        return False

    def fail_stopped(self, time: int, v: int) -> bool:
        """Whether processor ``v`` has permanently crashed by round ``time``.

        Monotone in ``time``: once true it stays true forever.  The scan
        for the first failing round is incremental and memoised, so a
        sweep over rounds ``0..T`` costs at most ``T + 1`` hash draws per
        processor in total.
        """
        if self.fail_stop_rate == 0.0:
            return False
        first = self._fail_stop_first.get(v)
        if first is not None:
            return first <= time
        start = self._fail_stop_scanned.get(v, 0)
        for t in range(start, time + 1):
            if keyed_uniform(self.seed, _TAG_FAIL_STOP, t, v) < self.fail_stop_rate:
                self._fail_stop_first[v] = t
                return True
        self._fail_stop_scanned[v] = time + 1
        return False

    def link_failed(self, time: int, u: int, v: int) -> bool:
        """Whether the link ``{u, v}`` has permanently failed by ``time``.

        Monotone in ``time`` and symmetric in the endpoints, with the
        same memoised incremental scan as :meth:`fail_stopped`.
        """
        if self.link_fail_rate == 0.0:
            return False
        key = (u, v) if u < v else (v, u)
        first = self._link_fail_first.get(key)
        if first is not None:
            return first <= time
        start = self._link_fail_scanned.get(key, 0)
        for t in range(start, time + 1):
            if keyed_uniform(self.seed, _TAG_LINK_FAIL, t, *key) < self.link_fail_rate:
                self._link_fail_first[key] = t
                return True
        self._link_fail_scanned[key] = time + 1
        return False


@dataclass(frozen=True)
class LostDelivery:
    """One point-to-point delivery destroyed by the fault model.

    ``time`` is the send time (the delivery would have landed at
    ``time + 1``); ``reason`` is one of ``"drop"``, ``"link-outage"``,
    ``"receiver-crash"``, ``"receiver-fail-stop"``, ``"link-fail"``.
    """

    time: int
    receiver: int
    sender: int
    message: int
    reason: str


@dataclass(frozen=True)
class SuppressedSend:
    """One whole multicast that never happened.

    ``reason`` is ``"sender-fail-stop"`` (the sender permanently
    crashed), ``"sender-crash"`` (the sender was inside a transient
    crash window) or ``"not-held"`` (earlier losses left the sender
    without the scheduled message — a cascading fault, not a model
    violation).
    """

    time: int
    sender: int
    message: int
    reason: str


@dataclass
class FaultyExecutionResult:
    """Everything observable about one lossy execution.

    The first six attributes mirror
    :class:`~repro.simulator.engine.ExecutionResult` exactly (and match
    it bit for bit under a null model); the rest record what the fault
    model did, plus enough context (``model``, ``initial_holds``,
    ``n_messages``) for :func:`repro.core.recovery.recover` to re-execute
    and repair without re-supplying the run's parameters.
    """

    complete: bool
    total_time: int
    completion_times: List[Optional[int]]
    duplicate_deliveries: int
    final_holds: List[int]
    arrivals: List[ArrivalEvent] = field(default_factory=list)
    lost: Tuple[LostDelivery, ...] = ()
    suppressed: Tuple[SuppressedSend, ...] = ()
    model: FaultModel = field(default_factory=FaultModel)
    initial_holds: Tuple[int, ...] = ()
    n_messages: int = 0

    @property
    def faults_injected(self) -> int:
        """Total deliveries lost plus multicasts suppressed."""
        return len(self.lost) + len(self.suppressed)

    def missing_sets(self) -> Dict[int, List[int]]:
        """Per-processor missing message ids (incomplete processors only)."""
        full = (1 << self.n_messages) - 1
        return {
            v: bits_of(full & ~h)
            for v, h in enumerate(self.final_holds)
            if h != full
        }

    def to_execution_result(self) -> ExecutionResult:
        """The fault-agnostic view (what the fault-free engine reports)."""
        return ExecutionResult(
            complete=self.complete,
            total_time=self.total_time,
            completion_times=list(self.completion_times),
            duplicate_deliveries=self.duplicate_deliveries,
            final_holds=list(self.final_holds),
            arrivals=list(self.arrivals),
        )


def execute_with_faults(
    graph: Graph,
    schedule: Schedule,
    model: FaultModel,
    initial_holds: Optional[Sequence[int]] = None,
    n_messages: Optional[int] = None,
    record_arrivals: bool = False,
) -> FaultyExecutionResult:
    """Run ``schedule`` on ``graph`` while ``model`` injects faults.

    Receive-before-send and one-round delivery as in
    :func:`~repro.simulator.engine.execute_schedule`, with the fault
    semantics described in the module docstring.  Under a null model the
    result matches ``execute_schedule`` on every field.

    :attr:`FaultyExecutionResult.suppressed` lists the suppressed
    multicasts in schedule order; :attr:`FaultyExecutionResult.lost`
    lists the lost deliveries in schedule order, ascending destination
    within one multicast.

    Raises
    ------
    ModelViolationError
        A transmission targets a non-neighbour.  Possession gaps caused
        by earlier losses are *not* violations — they suppress the send
        and are recorded in :attr:`FaultyExecutionResult.suppressed`
        (so is a message id outside ``[0, n_messages)``).
    """
    holds = PackedHoldState(graph.n, initial=initial_holds, n_messages=n_messages)
    init_snapshot = tuple(holds.snapshot())
    cols = columns_of(schedule)
    send_fault = _sender_faults(model, cols)
    loss = _delivery_losses(model, cols)
    out = propagate(
        cols, graph, holds, row_skip=send_fault != 0, pair_skip=loss != 0,
        suppress_not_held=True, stop_on=NON_EDGE | RANGE,
    )
    if out.violation is not None:  # faults never excuse a malformed schedule
        raise row_violation(out, out.violation, possession=False)
    why = np.where(send_fault != 0, send_fault, np.where(out.row_code & NOT_HELD, 3, 0))
    rows = np.flatnonzero(why)
    suppressed = _records(
        SuppressedSend, _SEND_REASONS, why[rows],
        cols.round[rows], cols.sender[rows], cols.message[rows],
    )
    lost_pairs = np.flatnonzero((loss != 0) & (why[cols.pair_row] == 0))
    rows = cols.pair_row[lost_pairs]
    lost = _records(
        LostDelivery, _LOSS_REASONS, loss[lost_pairs],
        cols.round[rows], cols.pair_dest[lost_pairs], cols.sender[rows], cols.message[rows],
    )
    return FaultyExecutionResult(
        complete=holds.all_complete(),
        total_time=cols.total_time,
        completion_times=holds.completion_times(),
        duplicate_deliveries=holds.duplicate_deliveries,
        final_holds=holds.snapshot(),
        arrivals=arrival_log(out) if record_arrivals else [],
        lost=lost,
        suppressed=suppressed,
        model=model,
        initial_holds=init_snapshot,
        n_messages=holds.n_messages,
    )


def _records(
    record: Callable[..., _R], reasons: Tuple[str, ...], codes: np.ndarray, *columns: np.ndarray
) -> Tuple[_R, ...]:
    """One ``record(*fields, reason)`` per entry of the parallel columns."""
    return tuple(
        record(*fields, reasons[code])
        for *fields, code in zip(*(c.tolist() for c in columns), codes.tolist())
    )


def _sender_faults(model: FaultModel, cols: Columns) -> np.ndarray:
    """Per row: 0, or the index in ``_SEND_REASONS`` of why it never sent.

    Permanent-failure draws run when the model declares it can kill
    (:attr:`FaultModel.has_permanent`), so scripted models that only
    override :meth:`FaultModel.fail_stopped` are honoured.
    """
    if model.is_null or not (model.has_permanent or model.crash_rate > 0.0):
        return np.zeros(len(cols.round), dtype=np.int64)
    return np.array(
        [
            1 if model.fail_stopped(t, s) else 2 if model.crashed(t, s) else 0
            for t, s in zip(cols.round.tolist(), cols.sender.tolist())
        ],
        dtype=np.int64,
    )


def _delivery_losses(model: FaultModel, cols: Columns) -> np.ndarray:
    """Per delivery: 0, or the index in ``_LOSS_REASONS`` of why it was lost.

    A delivery with several faults reports the first in that order.
    """
    rows = cols.pair_row
    if model.is_null:
        return np.zeros(len(rows), dtype=np.int64)
    t, s, d = cols.round[rows], cols.sender[rows], cols.pair_dest
    code = np.where(model.drops_deliveries(t, s, d), 5, 0)
    checks = (
        (model.has_permanent, 1, lambda t, s, d: model.fail_stopped(t, d)),
        (model.has_permanent, 2, model.link_failed),
        (model.link_outage_rate > 0.0, 3, model.link_out),
        (model.crash_rate > 0.0, 4, lambda t, s, d: model.crashed(t, d)),
    )
    for active, reason, lost in reversed(checks):
        if active:
            hit = [lost(*key) for key in zip(t.tolist(), s.tolist(), d.tolist())]
            code[np.asarray(hit, dtype=bool)] = reason
    return code
