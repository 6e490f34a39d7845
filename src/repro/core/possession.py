"""The possession kernel: the one executor of the multicasting model.

Section 1's semantics — each processor receives at most one message per
round (rule 1) and sends at most one held message, multicast to
adjacent processors only (rule 2); a message delivered at time ``t`` may
be forwarded in round ``t`` (receive-before-send) — are implemented
once, by :func:`propagate`.  The engine, the lossy engine and the static
analyzer are readings of its :class:`Outcome`; it lives in ``core`` so
the analyzer need not import the simulator.

Input is flat :class:`Columns`.  Checks that do not depend on possession
— id ranges, adjacency, sender/receiver collisions — run once,
vectorised over the whole schedule; possession then runs one numpy round
at a time on a :class:`PackedHoldState`.  Every row and every delivery
gets an outcome code, a bit set of :data:`REDUNDANT`, :data:`NOT_HELD`,
:data:`NON_EDGE`, :data:`COLLISION` and :data:`RANGE` (:data:`OK` is 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ReproError, SimulationError
from ..networks.graph import Graph
from .schedule import ArraySchedule, Round, Schedule, Transmission

__all__ = [
    "OK",
    "REDUNDANT",
    "NOT_HELD",
    "NON_EDGE",
    "COLLISION",
    "RANGE",
    "VIOLATIONS",
    "Columns",
    "Outcome",
    "PackedHoldState",
    "bits_of",
    "columns_of",
    "propagate",
]

OK = 0
#: A delivery that landed on a processor already holding its message.
REDUNDANT = 1
#: A row whose sender does not hold its message (or whose message id is
#: outside ``[0, n_messages)``); on a delivery, the row's code.
NOT_HELD = 2
#: A delivery along a pair of processors that is not an edge.
NON_EDGE = 4
#: A row whose sender already sent this round, or a delivery whose
#: receiver already receives this round (rule 1 / rule 2).
COLLISION = 8
#: A row whose sender, or a delivery whose destination, is not a processor.
RANGE = 16
#: Every code that breaks the model (all but :data:`REDUNDANT`).
VIOLATIONS = NOT_HELD | NON_EDGE | COLLISION | RANGE


def bits_of(bitset: int) -> List[int]:
    """Indices of the set bits of ``bitset``, ascending."""
    out: List[int] = []
    m = bitset
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


#: ``_BIT[k]`` is the uint64 with only bit ``k`` set.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _words_of(values: Sequence[int], words: int) -> np.ndarray:
    """Python-int bitsets as a ``(len(values), words)`` uint64 matrix."""
    raw = b"".join(v.to_bytes(words * 8, "little") for v in values)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(len(values), words)


class PackedHoldState:
    """All hold sets as one ``(n, words)`` uint64 matrix.

    Message ``m`` is bit ``m % 64`` of word ``m // 64`` — the convention
    of the schedule destination masks.  One :meth:`deliver_round` call
    applies a whole round's deliveries with one gather and one scatter,
    and logs which landed fresh; completion times and duplicate counts
    are read off that log.
    """

    __slots__ = ("n", "n_messages", "words", "bits", "_complete_at_start", "_log")

    def __init__(
        self,
        n: int,
        initial: Optional[Sequence[int]] = None,
        n_messages: Optional[int] = None,
    ) -> None:
        if n < 1:
            raise SimulationError("need at least one processor")
        self.n = n
        self.n_messages = n if n_messages is None else n_messages
        self.words = (self.n_messages + 63) // 64
        full = (1 << self.n_messages) - 1
        holds = [1 << v for v in range(n)] if initial is None else list(map(int, initial))
        if len(holds) != n:
            raise SimulationError(
                f"initial holdings has {len(holds)} entries for n={n} processors"
            )
        for v, h in enumerate(holds):
            if h & ~full:
                raise SimulationError(
                    f"processor {v} initially holds a message >= n_messages"
                )
        self.bits = _words_of(holds, self.words)
        self._complete_at_start = self.complete_mask()
        #: one ``(receivers, redundant, time)`` entry per landed round.
        self._log: List[Tuple[np.ndarray, np.ndarray, int]] = []

    # ------------------------------------------------------------------
    def deliver_round(
        self,
        receivers: np.ndarray,
        messages: np.ndarray,
        time: int,
        *,
        distinct: bool = True,
    ) -> np.ndarray:
        """Land one round's deliveries; return which were redundant.

        ``distinct`` promises every receiver appears once (rule 1).
        Without it, deliveries land in order: a repeat of an earlier
        ``(receiver, message)`` of the same batch is redundant.
        """
        word, bit = messages >> 6, _BIT[messages & 63]
        cur = self.bits[receivers, word]
        dup = (cur & bit) != 0
        if distinct:
            self.bits[receivers, word] = cur | bit
        else:
            dup |= _later_repeats(receivers * self.n_messages + messages)
            np.bitwise_or.at(self.bits, (receivers, word), bit)
        self._log.append((receivers, dup, time))
        return dup

    # ------------------------------------------------------------------
    def row_int(self, v: int) -> int:
        """Processor ``v``'s hold set as a Python-int bitset."""
        return int.from_bytes(self.bits[v].astype("<u8").tobytes(), "little")

    def messages_of(self, v: int) -> List[int]:
        """Sorted list of messages held by ``v``."""
        return bits_of(self.row_int(v))

    def missing_of(self, v: int) -> List[int]:
        """Sorted list of messages ``v`` still lacks."""
        return bits_of(((1 << self.n_messages) - 1) & ~self.row_int(v))

    def complete_mask(self) -> np.ndarray:
        """Boolean per processor: does it hold every message?"""
        return np.bitwise_count(self.bits).sum(axis=1) == self.n_messages

    def all_complete(self) -> bool:
        """Whether every processor holds every message (gossip done)."""
        return bool(self.complete_mask().all())

    def completion_times(self) -> List[Optional[int]]:
        """Per-processor completion times (``None`` if never complete).

        Hold sets only grow, so a processor completes with the fresh
        landing of its last missing message: its latest fresh landing.
        """
        done = np.where(self._complete_at_start, 0, -1)
        for receivers, dup, time in self._log:
            np.maximum.at(done, receivers[~dup], time)
        done[~self.complete_mask()] = -1
        return [int(t) if t >= 0 else None for t in done]

    @property
    def duplicate_deliveries(self) -> int:
        """Count of deliveries of already-held messages."""
        return sum(int(dup.sum()) for _, dup, _ in self._log)

    def snapshot(self) -> List[int]:
        """All hold sets as Python-int bitsets."""
        return [self.row_int(v) for v in range(self.n)]


@dataclass(frozen=True)
class Columns:
    """A schedule as flat columns.

    ``round`` / ``sender`` / ``message`` hold one entry per multicast
    row, rows grouped by nondecreasing round; ``pair_row`` /
    ``pair_dest`` hold one entry per delivery, in row order with
    destinations ascending.  ``total_time`` counts rounds, empty ones
    included.
    """

    total_time: int
    round: np.ndarray
    sender: np.ndarray
    message: np.ndarray
    pair_row: np.ndarray
    pair_dest: np.ndarray

    @property
    def round_ptr(self) -> np.ndarray:
        """Rows of round ``t`` are ``round_ptr[t]:round_ptr[t + 1]``."""
        return np.searchsorted(self.round, np.arange(self.total_time + 1))


def columns_of(
    schedule: "Schedule | ArraySchedule | Iterable[Iterable[Transmission]]",
) -> Columns:
    """The flat columns of a schedule.

    Array forms are read directly.  A schedule held only as objects, or
    a raw sequence of rounds (each a :class:`Round` or an iterable of
    :class:`Transmission`), goes through one Python loop — the only way
    colliding rounds or out-of-range ids reach the kernel.
    """
    if isinstance(schedule, Schedule) and schedule.is_array_backed:
        schedule = schedule.arrays()
    if isinstance(schedule, ArraySchedule):
        pair_row, pair_dest = schedule.destination_pairs()
        return Columns(
            schedule.total_time,
            schedule.round.astype(np.int64),
            schedule.sender.astype(np.int64),
            schedule.message.astype(np.int64),
            pair_row,
            pair_dest,
        )
    rounds: List[int] = []
    senders: List[int] = []
    messages: List[int] = []
    fan_outs: List[int] = []
    dests: List[int] = []
    total = 0
    for t, rnd in enumerate(schedule):
        total = t + 1
        for tx in rnd if isinstance(rnd, Round) else tuple(rnd):
            if not isinstance(tx, Transmission):
                raise ReproError(
                    f"cannot lint {tx!r}: rounds must contain Transmission objects"
                )
            rounds.append(t)
            senders.append(tx.sender)
            messages.append(tx.message)
            fan_outs.append(len(tx.destinations))
            dests.extend(sorted(tx.destinations))
    return Columns(
        total,
        np.array(rounds, dtype=np.int64),
        np.array(senders, dtype=np.int64),
        np.array(messages, dtype=np.int64),
        np.repeat(np.arange(len(rounds), dtype=np.int64), fan_outs),
        np.array(dests, dtype=np.int64),
    )


def _later_repeats(keys: np.ndarray) -> np.ndarray:
    """Boolean per key: an equal key occurs earlier in the array."""
    order = np.argsort(keys, kind="stable")
    again = np.zeros(len(keys), dtype=bool)
    again[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return again


def _static_codes(
    cols: Columns, graph: Graph, n_messages: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row and per-delivery codes that do not depend on possession."""
    n = graph.n
    snd, msg, prow, dest = cols.sender, cols.message, cols.pair_row, cols.pair_dest
    row_code = np.zeros(len(snd), dtype=np.uint8)
    pair_code = np.zeros(len(dest), dtype=np.uint8)
    sender_ok = (snd >= 0) & (snd < n)
    row_code[~sender_ok] |= RANGE
    row_code[(msg < 0) | (msg >= n_messages)] |= NOT_HELD
    ok_rows = np.flatnonzero(sender_ok)
    row_code[ok_rows[_later_repeats(cols.round[ok_rows] * n + snd[ok_rows])]] |= COLLISION

    dest_ok = (dest >= 0) & (dest < n)
    pair_code[~dest_ok] |= RANGE
    ok_pairs = np.flatnonzero(dest_ok)
    pair_code[ok_pairs[_later_repeats(cols.round[prow[ok_pairs]] * n + dest[ok_pairs])]] |= COLLISION
    # Adjacency: CSR neighbour lists are sorted, so the directed edge keys
    # ``u * n + v`` are already ascending; a sentinel past every key
    # keeps the lookup in bounds.
    edge_keys = np.append(
        np.repeat(np.arange(n, dtype=np.int64), graph.degrees()) * n + graph.indices,
        n * n,
    )
    checked = ok_pairs[sender_ok[prow[ok_pairs]]]
    keys = snd[prow[checked]] * n + dest[checked]
    pair_code[checked[edge_keys[np.searchsorted(edge_keys, keys)] != keys]] |= NON_EDGE
    return row_code, pair_code


@dataclass
class Outcome:
    """What :func:`propagate` decided.

    ``row_code`` / ``pair_code`` are the outcome codes, ``landed`` marks
    the deliveries that reached their destination (in landing order: by
    time, row, then ascending destination — the arrival log), ``holds``
    is the hold state at the end.  A run that stopped sets ``violation``
    to the row it stopped at; ``holds`` is then the state that row's
    send saw.
    """

    columns: Columns
    row_code: np.ndarray
    pair_code: np.ndarray
    landed: np.ndarray
    holds: PackedHoldState
    violation: Optional[int] = None


def propagate(
    cols: Columns,
    graph: Graph,
    holds: PackedHoldState,
    *,
    row_skip: Optional[np.ndarray] = None,
    pair_skip: Optional[np.ndarray] = None,
    suppress_not_held: bool = False,
    stop_on: int = OK,
    before_send: Optional[Callable[[int, PackedHoldState], None]] = None,
) -> Outcome:
    """Run possession forward through every round of ``cols``.

    Parameters
    ----------
    holds:
        The initial hold state; updated in place.
    row_skip / pair_skip:
        Rows that never send and deliveries that never land (faults).
        Skipped rows are not checked for possession.
    suppress_not_held:
        Whether a row whose sender lacks the message sends nothing
        (lossy execution); otherwise its deliveries still land.
    stop_on:
        Codes to stop at: the run stops, before its deliveries land, in
        the first round where a row or a delivery has one, at the first
        such row.
    before_send:
        Called with ``(t, holds)`` after round ``t - 1``'s deliveries
        land and before round ``t``'s sends are checked.
    """
    row_code, pair_code = _static_codes(cols, graph, holds.n_messages)
    snd, msg, prow, dest = cols.sender, cols.message, cols.pair_row, cols.pair_dest
    check = row_code & (RANGE | NOT_HELD) == 0
    lands = (pair_code & RANGE == 0) & (row_code[prow] & NOT_HELD == 0)
    if row_skip is not None:
        check &= ~row_skip
        lands &= ~row_skip[prow]
    if pair_skip is not None:
        lands &= ~pair_skip
    distinct = not (pair_code & COLLISION).any()
    # Per round, everything but the holds is known up front: the rows to
    # check, the deliveries that may land, whether a static code stops.
    ptr = cols.round_ptr
    pair_ptr = np.searchsorted(prow, ptr)
    checked = np.flatnonzero(check)
    check_ptr = np.searchsorted(checked, ptr).tolist()
    check_snd, check_word, check_bit = snd[checked], msg[checked] >> 6, _BIT[msg[checked] & 63]
    landing = np.flatnonzero(lands)
    land_ptr = np.searchsorted(landing, pair_ptr).tolist()
    land_dest, land_msg = dest[landing], msg[prow[landing]]
    stops = np.zeros(cols.total_time + 1, dtype=bool)
    stops[cols.round[row_code & stop_on != 0]] = True
    stops[cols.round[prow[pair_code & stop_on != 0]]] = True
    static_stop = stops.tolist()
    redundant: List[np.ndarray] = []
    landed_parts: List[np.ndarray] = []
    stopped: Optional[int] = None
    empty = landing[:0]
    pend_dest, pend_msg, pend_idx = land_dest[:0], land_msg[:0], empty
    for t in range(cols.total_time + 1):
        if len(pend_idx):
            dup = holds.deliver_round(pend_dest, pend_msg, t, distinct=distinct)
            redundant.append(pend_idx[dup])
            landed_parts.append(pend_idx)
        if t == cols.total_time:
            break
        if before_send is not None:
            before_send(t, holds)
        c0, c1 = check_ptr[t], check_ptr[t + 1]
        held = (holds.bits[check_snd[c0:c1], check_word[c0:c1]] & check_bit[c0:c1]) != 0
        gap = not held.all()
        if gap:
            row_code[checked[c0:c1][~held]] |= NOT_HELD
        if static_stop[t] or (gap and stop_on & NOT_HELD):
            lo, hi, plo, phi = ptr[t], ptr[t + 1], pair_ptr[t], pair_ptr[t + 1]
            bad_rows = lo + np.flatnonzero(row_code[lo:hi] & stop_on)
            bad_pairs = prow[plo + np.flatnonzero(pair_code[plo:phi] & stop_on)]
            stopped = int(min(bad_rows.min(initial=hi), bad_pairs.min(initial=hi)))
            break
        a, b = land_ptr[t], land_ptr[t + 1]
        pend_dest, pend_msg, pend_idx = land_dest[a:b], land_msg[a:b], landing[a:b]
        if gap and suppress_not_held:
            keep = row_code[prow[pend_idx]] & NOT_HELD == 0
            pend_dest, pend_msg, pend_idx = pend_dest[keep], pend_msg[keep], pend_idx[keep]
    landed = np.zeros(len(dest), dtype=bool)
    landed[np.concatenate([empty, *landed_parts])] = True
    pair_code[np.concatenate([empty, *redundant])] |= REDUNDANT
    return Outcome(cols, row_code, pair_code, landed, holds, violation=stopped)
