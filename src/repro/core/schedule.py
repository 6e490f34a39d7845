"""Communication schedules — the paper's central object (Section 1).

A *communication round* ``C`` is a set of tuples ``(m, l, D)``: message
``m`` is multicast from processor ``P_l`` to the processors in ``D``.  A
round must satisfy the network rules:

1. every pair of ``D`` sets in ``C`` is disjoint (each processor receives
   at most one message per round), and
2. all sender indices ``l`` are distinct (each processor sends at most one
   message per round).

A *communication schedule* is a sequence of rounds.  Round ``t`` is sent
at time ``t`` and received at time ``t + 1``; the *total communication
time* is the number of rounds (equivalently, the latest time at which a
communication happens).

Two representations live here:

* :class:`ArraySchedule` — the **canonical in-memory form**: parallel
  ``round`` / ``sender`` / ``message`` numpy columns plus a packed
  destination bitmask matrix, one row per multicast.  Everything on the
  hot path (the ConcurrentUpDown construction, the simulator's array
  engine, serialisation, cache weight accounting) works on this form
  directly.
* :class:`Schedule` / :class:`Round` / :class:`Transmission` — the
  object view.  A ``Schedule`` built from arrays is a **lazy facade**:
  the per-round ``Transmission`` tuples are only materialised when a
  caller actually iterates them, so array-native consumers never pay
  for objects they do not touch.

The classes enforce the two structural rules at construction time
(vectorised for the array form, per-object for the facade); the
*semantic* rules (the sender actually holds the message, every
destination is an adjacent processor) depend on the network and on the
execution history and are checked by :mod:`repro.simulator.validator`
and :mod:`repro.lint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ScheduleConflictError, ScheduleError
from ..types import Message, Time, Vertex, VertexSet

__all__ = [
    "Transmission",
    "Round",
    "Schedule",
    "ArraySchedule",
    "ScheduleBuilder",
    "merge_schedules",
]

#: Ids this large would make the packed destination matrix absurd; the
#: builder falls back to the object representation beyond it.
_MAX_PACKED_ID = 1 << 22


def _mask_width(n: int) -> int:
    """Number of uint64 words needed for an ``n``-bit destination mask."""
    return max(1, (int(n) + 63) >> 6)


def _bit_of(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-id (word index, single-bit uint64 mask) pair."""
    word = ids >> 6
    bit = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    return word, bit


def _popcounts(masks: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a packed (rows, words) uint64 matrix."""
    return np.bitwise_count(masks).sum(axis=1, dtype=np.int64)


@dataclass(frozen=True)
class Transmission:
    """One multicast: ``message`` goes from ``sender`` to ``destinations``.

    ``destinations`` must be non-empty and must not contain the sender
    (the sender keeps every message it ever held; self-delivery is
    meaningless in the model).

    Ordering compares ``(sender, message)`` only: within one round
    senders are unique, so that is a total order — comparing the
    destination frozensets would be a subset *partial* order, unsafe for
    sorting.  Equality still covers all three fields.
    """

    sender: Vertex
    message: Message
    destinations: FrozenSet[Vertex]

    def __lt__(self, other: "Transmission") -> bool:
        if not isinstance(other, Transmission):
            return NotImplemented
        return (self.sender, self.message) < (other.sender, other.message)

    def __post_init__(self) -> None:
        if not isinstance(self.destinations, frozenset):
            object.__setattr__(self, "destinations", frozenset(self.destinations))
        if not self.destinations:
            raise ScheduleError(
                f"transmission of message {self.message} from {self.sender} "
                "has an empty destination set"
            )
        if self.sender in self.destinations:
            raise ScheduleError(
                f"processor {self.sender} cannot send message {self.message} to itself"
            )

    def fan_out(self) -> int:
        """Number of simultaneous receivers (1 = unicast)."""
        return len(self.destinations)

    def __repr__(self) -> str:
        dests = ",".join(map(str, sorted(self.destinations)))
        return f"({self.message}, {self.sender} -> {{{dests}}})"


class Round:
    """An immutable communication round: a conflict-free set of transmissions.

    Enforces the two structural rules of the model at construction and
    offers O(1) lookup of "who sends what" and "who receives what".
    """

    __slots__ = ("_transmissions", "_by_sender", "_by_receiver")

    def __init__(self, transmissions: Iterable[Transmission] = ()) -> None:
        txs = tuple(sorted(transmissions, key=lambda tx: (tx.sender, tx.message)))
        by_sender: Dict[int, Transmission] = {}
        by_receiver: Dict[int, Transmission] = {}
        for tx in txs:
            if tx.sender in by_sender:
                raise ScheduleConflictError(
                    f"processor {tx.sender} sends two messages in one round: "
                    f"{by_sender[tx.sender].message} and {tx.message}"
                )
            by_sender[tx.sender] = tx
            for d in tx.destinations:
                if d in by_receiver:
                    raise ScheduleConflictError(
                        f"processor {d} receives two messages in one round: "
                        f"{by_receiver[d].message} and {tx.message}"
                    )
                by_receiver[d] = tx
        self._transmissions = txs
        self._by_sender = by_sender
        self._by_receiver = by_receiver

    @property
    def transmissions(self) -> Tuple[Transmission, ...]:
        """All transmissions, sorted by (sender, message)."""
        return self._transmissions

    def sent_by(self, v: Vertex) -> Optional[Transmission]:
        """The transmission ``v`` performs this round, if any."""
        return self._by_sender.get(v)

    def received_by(self, v: Vertex) -> Optional[Transmission]:
        """The transmission delivering a message to ``v`` this round, if any."""
        return self._by_receiver.get(v)

    def senders(self) -> FrozenSet[int]:
        """All processors that send this round."""
        return frozenset(self._by_sender)

    def receivers(self) -> FrozenSet[int]:
        """All processors that receive this round."""
        return frozenset(self._by_receiver)

    def message_count(self) -> int:
        """Number of distinct multicasts this round."""
        return len(self._transmissions)

    def delivery_count(self) -> int:
        """Total point-to-point deliveries (sum of fan-outs)."""
        return sum(tx.fan_out() for tx in self._transmissions)

    def is_empty(self) -> bool:
        """Whether no communication happens this round."""
        return not self._transmissions

    def __iter__(self) -> Iterator[Transmission]:
        return iter(self._transmissions)

    def __len__(self) -> int:
        return len(self._transmissions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Round):
            return NotImplemented
        return self._transmissions == other._transmissions

    def __hash__(self) -> int:
        return hash(self._transmissions)

    def __repr__(self) -> str:
        return f"Round({list(self._transmissions)!r})"


class ArraySchedule:
    """The canonical array form of a schedule: one row per multicast.

    Columns (parallel arrays, one entry per transmission, sorted by
    ``(round, sender)`` with senders unique within a round):

    ============  =========  =============================================
    column        dtype      meaning
    ============  =========  =============================================
    ``round``     int32      send time of the multicast
    ``sender``    int32      sending processor
    ``message``   int32      message id (a DFS label for tree schedules)
    ``dest_mask`` uint64     packed destination bitset, shape ``(E, W)``
                             with ``W = ceil(n / 64)``; bit ``d`` of row
                             ``e`` (word ``d >> 6``, bit ``d & 63``,
                             little-endian within the row) means
                             processor ``d`` receives transmission ``e``
    ============  =========  =============================================

    ``n`` is the number of processors (fixes the mask width) and
    ``n_messages`` the number of distinct message ids.  The structural
    rules of Section 1 are enforced vectorised at construction; error
    paths materialise the offending :class:`Round` so the exception type
    *and text* match the object view exactly.
    """

    __slots__ = (
        "n",
        "n_messages",
        "name",
        "round",
        "sender",
        "message",
        "_dest_mask",
        "_mask_builder",
        "_round_ptr",
        "_fan_outs",
    )

    def __init__(
        self,
        round: np.ndarray,
        sender: np.ndarray,
        message: np.ndarray,
        dest_mask: Optional[np.ndarray],
        *,
        n: int,
        n_messages: Optional[int] = None,
        name: str = "",
        validate: bool = True,
        mask_builder=None,
    ) -> None:
        self.n = int(n)
        self.n_messages = self.n if n_messages is None else int(n_messages)
        self.name = name
        self.round = np.ascontiguousarray(round, dtype=np.int32)
        self.sender = np.ascontiguousarray(sender, dtype=np.int32)
        self.message = np.ascontiguousarray(message, dtype=np.int32)
        if dest_mask is None:
            if mask_builder is None:
                raise ScheduleError(
                    "ArraySchedule needs a dest_mask matrix or a mask_builder"
                )
            self._dest_mask: Optional[np.ndarray] = None
            self._mask_builder = mask_builder
        else:
            self._dest_mask = self._check_mask_shape(dest_mask)
            self._mask_builder = None
        self._round_ptr: Optional[np.ndarray] = None
        self._fan_outs: Optional[np.ndarray] = None
        if validate:
            self._validate()

    def _check_mask_shape(self, dest_mask: np.ndarray) -> np.ndarray:
        masks = np.ascontiguousarray(dest_mask, dtype=np.uint64)
        if masks.ndim != 2 or masks.shape != (
            len(self.round),
            _mask_width(self.n),
        ):
            raise ScheduleError(
                f"dest_mask has shape {masks.shape}; expected "
                f"({len(self.round)}, {_mask_width(self.n)}) for n={self.n}"
            )
        return masks

    @property
    def dest_mask(self) -> np.ndarray:
        """Packed ``(E, W)`` destination matrix.

        Usually stored eagerly; schedules built by the array pipeline
        (:meth:`_from_canonical` with a ``mask_builder``) materialise it
        here on first access — their Rule 1 check already ran on the
        flat delivery stream, and the mask-level checks re-run at
        materialisation as defence in depth.
        """
        if self._dest_mask is None:
            self._dest_mask = self._check_mask_shape(self._mask_builder())
            self._mask_builder = None
            self._validate_masks()
        return self._dest_mask

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        times: np.ndarray,
        senders: np.ndarray,
        messages: np.ndarray,
        masks: np.ndarray,
        *,
        n: int,
        n_messages: Optional[int] = None,
        name: str = "",
    ) -> "ArraySchedule":
        """Canonicalise raw send events into an :class:`ArraySchedule`.

        This is the array analogue of :class:`ScheduleBuilder`: events
        with empty destination sets are dropped, same-time same-sender
        events carrying the *same* message fuse into one multicast
        (their destination masks are OR-ed — the Theorem 1 overlap), and
        a same-time same-sender pair with *different* messages raises
        :class:`~repro.exceptions.ScheduleConflictError`, machine-checking
        the no-interference property on every construction.
        """
        times = np.asarray(times, dtype=np.int64)
        senders = np.asarray(senders, dtype=np.int64)
        messages = np.asarray(messages, dtype=np.int64)
        masks = np.asarray(masks, dtype=np.uint64)
        if len(times) == 0:
            return cls._empty(n, n_messages, name)
        keep = _popcounts(masks) > 0
        if not keep.all():
            times, senders, messages, masks = (
                times[keep], senders[keep], messages[keep], masks[keep],
            )
        if len(times) == 0:
            return cls._empty(n, n_messages, name)

        order = np.lexsort((messages, senders, times))
        times, senders, messages, masks = (
            times[order], senders[order], messages[order], masks[order],
        )
        new_group = np.empty(len(times), dtype=bool)
        new_group[0] = True
        np.logical_or(
            np.diff(times) != 0, np.diff(senders) != 0, out=new_group[1:]
        )
        starts = np.flatnonzero(new_group)
        if len(starts) != len(times):
            # At least one (time, sender) pair carries several events.
            ends = np.append(starts[1:], len(times)) - 1
            bad = messages[starts] != messages[ends]
            if bad.any():
                g = int(np.flatnonzero(bad)[0])
                raise ScheduleConflictError(
                    f"processor {int(senders[starts[g]])} would send both "
                    f"message {int(messages[starts[g]])} and message "
                    f"{int(messages[ends[g]])} at time {int(times[starts[g]])}"
                )
            masks = np.bitwise_or.reduceat(masks, starts, axis=0)
            times, senders, messages = times[starts], senders[starts], messages[starts]
        return cls(
            times, senders, messages, masks,
            n=n, n_messages=n_messages, name=name,
        )

    @classmethod
    def from_schedule(
        cls,
        schedule: "Schedule",
        *,
        n: Optional[int] = None,
        n_messages: Optional[int] = None,
    ) -> "ArraySchedule":
        """Pack an object-view schedule into the canonical array form.

        ``n`` defaults to the smallest processor count covering every
        sender and destination in the schedule.
        """
        times: List[int] = []
        senders: List[int] = []
        messages: List[int] = []
        dests: List[Tuple[int, ...]] = []
        for t, rnd in enumerate(schedule.rounds):
            for tx in rnd:
                times.append(t)
                senders.append(int(tx.sender))
                messages.append(int(tx.message))
                dests.append(tuple(tx.destinations))
        max_id = -1
        for s, ds in zip(senders, dests):
            top = max(ds) if ds else -1
            m = s if s > top else top
            if m > max_id:
                max_id = m
        if any(d < 0 for ds in dests for d in ds) or min(senders, default=0) < 0:
            raise ScheduleError(
                "cannot pack a schedule with negative processor ids into arrays"
            )
        if n is None:
            n = max_id + 1
        elif max_id >= n:
            raise ScheduleError(
                f"schedule references processor {max_id} but n={n} was given"
            )
        masks = _masks_from_dest_lists(dests, int(n))
        return cls.from_events(
            np.asarray(times, dtype=np.int64),
            np.asarray(senders, dtype=np.int64),
            np.asarray(messages, dtype=np.int64),
            masks,
            n=int(n),
            n_messages=n_messages,
            name=schedule.name,
        )

    @classmethod
    def _from_canonical(
        cls,
        round: np.ndarray,
        sender: np.ndarray,
        message: np.ndarray,
        dest_mask: Optional[np.ndarray],
        fan_outs: np.ndarray,
        *,
        n: int,
        n_messages: Optional[int] = None,
        name: str = "",
        mask_builder=None,
    ) -> "ArraySchedule":
        """Construct from already-canonical rows with known fan-outs.

        ``fan_outs`` must equal the per-row mask popcounts.  With an
        eager ``dest_mask`` the full structural validation runs (and
        cross-checks the claimed fan-outs against the mask unions).
        With ``dest_mask=None`` plus a ``mask_builder`` callable the
        packed matrix materialises lazily on first access: the caller
        vouches that Rule 1 was checked on its flat delivery stream
        (the ConcurrentUpDown assembly counts receivers per round
        directly), only the column-level checks run here, and the
        mask-level checks re-run whenever the matrix materialises.
        """
        self = cls(
            round, sender, message, dest_mask,
            n=n, n_messages=n_messages, name=name, validate=False,
            mask_builder=mask_builder,
        )
        self._fan_outs = np.ascontiguousarray(fan_outs, dtype=np.int64)
        if self._dest_mask is None:
            self._validate_columns()
        else:
            self._validate()
        return self

    @classmethod
    def _empty(cls, n: int, n_messages: Optional[int], name: str) -> "ArraySchedule":
        zero = np.zeros(0, dtype=np.int32)
        return cls(
            zero, zero, zero,
            np.zeros((0, _mask_width(n)), dtype=np.uint64),
            n=n, n_messages=n_messages, name=name, validate=False,
        )

    # ------------------------------------------------------------------
    # Structural validation (vectorised; object fallback for error text)
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        self._validate_columns()
        if len(self.round):
            self._validate_masks()

    def _validate_columns(self) -> None:
        """Checks that need only the flat columns (not the mask matrix)."""
        rnd, snd, msg = self.round, self.sender, self.message
        if len(rnd) == 0:
            return
        if (
            np.any(rnd < 0)
            or np.any(snd < 0)
            or np.any(snd >= self.n)
        ):
            raise ScheduleError(
                "array schedule has a negative round or an out-of-range sender"
            )
        if np.any(msg < 0):
            e = int(np.flatnonzero(msg < 0)[0])
            raise ScheduleError(
                f"transmission from {int(snd[e])} at time {int(rnd[e])} has "
                f"negative message id {int(msg[e])}"
            )
        key_sorted = np.all(
            (rnd[:-1] < rnd[1:])
            | ((rnd[:-1] == rnd[1:]) & (snd[:-1] < snd[1:]))
        )
        if not key_sorted:
            raise ScheduleError(
                "array schedule rows must be strictly sorted by (round, sender); "
                "build via ArraySchedule.from_events()"
            )
        pops = self.fan_outs()
        if np.any(pops == 0):
            e = int(np.flatnonzero(pops == 0)[0])
            raise ScheduleError(
                f"transmission of message {int(msg[e])} from {int(snd[e])} "
                "has an empty destination set"
            )

    def _validate_masks(self) -> None:
        """Mask-level checks: no self-sends, Rule 1 receiver disjointness."""
        snd, msg = self.sender, self.message
        masks = self.dest_mask
        pops = self.fan_outs()
        word, bit = _bit_of(snd.astype(np.int64))
        self_send = (masks[np.arange(len(snd)), word] & bit) != 0
        if self_send.any():
            e = int(np.flatnonzero(self_send)[0])
            raise ScheduleError(
                f"processor {int(snd[e])} cannot send message {int(msg[e])} to itself"
            )
        # Rule 1 — each processor receives at most one message per round:
        # within every round the destination masks must be pairwise
        # disjoint, i.e. popcount(OR) == sum(popcounts).
        ptr = self.round_ptr
        starts = ptr[:-1][np.diff(ptr) > 0]
        if len(starts):
            union = np.bitwise_or.reduceat(masks, starts, axis=0)
            union_pop = _popcounts(union)
            sum_pop = np.add.reduceat(pops, starts)
            if np.any(union_pop != sum_pop):
                # Materialise the rounds: the first colliding Round() raises
                # the historical ScheduleConflictError with the exact text.
                self.build_rounds()
                raise ScheduleConflictError(  # pragma: no cover — Round raises
                    "array schedule has a receiver collision"
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def total_time(self) -> int:
        """The paper's total communication time (number of rounds)."""
        return int(self.round[-1]) + 1 if len(self.round) else 0

    @property
    def n_transmissions(self) -> int:
        """Total multicasts across all rounds."""
        return len(self.round)

    @property
    def round_ptr(self) -> np.ndarray:
        """CSR offsets: transmissions of round ``t`` are rows ``ptr[t]:ptr[t+1]``."""
        if self._round_ptr is None:
            self._round_ptr = np.searchsorted(
                self.round, np.arange(self.total_time + 1), side="left"
            ).astype(np.int64)
        return self._round_ptr

    def fan_outs(self) -> np.ndarray:
        """Per-transmission receiver counts (popcount of each mask row)."""
        if self._fan_outs is None:
            self._fan_outs = _popcounts(self.dest_mask)
        return self._fan_outs

    def delivery_count(self) -> int:
        """Total point-to-point deliveries across all rounds."""
        return int(self.fan_outs().sum())

    def max_fan_out(self) -> int:
        """Largest multicast fan-out anywhere in the schedule (0 if empty)."""
        return int(self.fan_outs().max()) if len(self.round) else 0

    @property
    def nbytes(self) -> int:
        """Memory footprint of the canonical arrays (cache weight unit).

        The destination matrix contributes its full ``E x W x 8`` bytes
        whether or not it has materialised yet, so the value is a stable
        property of the schedule, not of access history.
        """
        return (
            self.round.nbytes
            + self.sender.nbytes
            + self.message.nbytes
            + len(self.round) * _mask_width(self.n) * 8
        )

    def destination_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flattened ``(transmission row, destination)`` delivery pairs.

        Rows appear in transmission order, destinations ascending — the
        vectorised expansion of every multicast into unicasts.  Works on
        the non-zero mask words only, peeling one lowest set bit per word
        per pass, so the cost follows the deliveries, not ``E x n``.
        """
        row, word = np.nonzero(self.dest_mask)
        bits = self.dest_mask[row, word]
        counts = np.bitwise_count(bits).astype(np.int64)
        at = np.cumsum(counts) - counts
        dest = np.empty(int(counts.sum()), dtype=np.int64)
        base = word.astype(np.int64) * 64
        while len(bits):
            low = bits & (~bits + np.uint64(1))
            dest[at] = base + np.bitwise_count(low - np.uint64(1))
            bits = bits ^ low
            more = bits != 0
            bits, at, base = bits[more], at[more] + 1, base[more]
        return np.repeat(row.astype(np.int64), counts), dest

    def widen(self, n: int, n_messages: Optional[int] = None) -> "ArraySchedule":
        """The same schedule on a larger processor universe.

        Pads the destination matrix to ``ceil(n / 64)`` words; contents
        are untouched so no re-validation is needed.
        """
        n = int(n)
        if n < self.n:
            raise ScheduleError(f"cannot narrow an n={self.n} schedule to n={n}")
        n_msgs = self.n_messages if n_messages is None else int(n_messages)
        if n == self.n and n_msgs == self.n_messages:
            return self
        w_old, w_new = _mask_width(self.n), _mask_width(n)
        masks = self.dest_mask
        if w_new > w_old:
            masks = np.hstack(
                [masks, np.zeros((len(self.round), w_new - w_old), dtype=np.uint64)]
            )
        return ArraySchedule(
            self.round, self.sender, self.message, masks,
            n=n, n_messages=n_msgs, name=self.name, validate=False,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_npz(self, path) -> None:
        """Serialise the canonical arrays to a ``.npz`` file."""
        np.savez(
            path,
            round=self.round,
            sender=self.sender,
            message=self.message,
            dest_mask=self.dest_mask,
            meta=np.array([self.n, self.n_messages], dtype=np.int64),
            name=np.array(self.name),
        )

    @classmethod
    def from_npz(cls, path) -> "ArraySchedule":
        """Load (and re-validate) an :meth:`to_npz` artefact."""
        with np.load(path, allow_pickle=False) as data:
            n, n_messages = (int(x) for x in data["meta"])
            return cls(
                data["round"], data["sender"], data["message"], data["dest_mask"],
                n=n, n_messages=n_messages, name=str(data["name"]),
            )

    # ------------------------------------------------------------------
    # Object-view materialisation
    # ------------------------------------------------------------------
    def build_rounds(self) -> Tuple[Round, ...]:
        """Materialise the full object view (one Round per send time)."""
        total = self.total_time
        if total == 0:
            return ()
        row, dest = self.destination_pairs()
        counts = self.fan_outs()
        bounds = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        senders = self.sender.tolist()
        messages = self.message.tolist()
        dest_list = dest.tolist()
        ptr = self.round_ptr.tolist()
        rounds: List[Round] = []
        for t in range(total):
            txs = [
                Transmission(
                    sender=senders[e],
                    message=messages[e],
                    destinations=frozenset(dest_list[bounds[e] : bounds[e + 1]]),
                )
                for e in range(ptr[t], ptr[t + 1])
            ]
            rounds.append(Round(txs))
        return tuple(rounds)

    def to_schedule(self, name: Optional[str] = None) -> "Schedule":
        """The lazy object-view facade over these arrays."""
        return Schedule.from_arrays(self, name=name)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArraySchedule):
            return NotImplemented
        return (
            self.n == other.n
            and self.n_messages == other.n_messages
            and np.array_equal(self.round, other.round)
            and np.array_equal(self.sender, other.sender)
            and np.array_equal(self.message, other.message)
            and np.array_equal(self.dest_mask, other.dest_mask)
        )

    def __len__(self) -> int:
        return self.total_time

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"ArraySchedule(n={self.n}, total_time={self.total_time}, "
            f"transmissions={self.n_transmissions}{label})"
        )


def _masks_from_dest_lists(
    dests: Sequence[Sequence[int]], n: int
) -> np.ndarray:
    """Packed (E, W) destination matrix from per-event destination lists."""
    masks = np.zeros((len(dests), _mask_width(n)), dtype=np.uint64)
    counts = np.fromiter((len(d) for d in dests), dtype=np.int64, count=len(dests))
    total = int(counts.sum())
    if total:
        flat = np.fromiter(
            (d for ds in dests for d in ds), dtype=np.int64, count=total
        )
        rows = np.repeat(np.arange(len(dests)), counts)
        word, bit = _bit_of(flat)
        np.bitwise_or.at(masks, (rows, word), bit)
    return masks


class Schedule:
    """An immutable sequence of rounds.

    Round ``t`` (0-based) is *sent* at time ``t`` and *received* at time
    ``t + 1``.  Trailing empty rounds are trimmed so
    :attr:`total_time` matches the paper's "latest time there is a
    communication".

    A schedule constructed from an :class:`ArraySchedule`
    (:meth:`from_arrays`, or any array-native algorithm / builder) keeps
    the arrays as the source of truth and materialises the
    ``Round`` / ``Transmission`` objects lazily on first access; counters
    such as :attr:`total_time` and :meth:`total_deliveries` answer from
    the arrays without materialising anything.
    """

    __slots__ = ("_rounds", "_name", "_arrays")

    def __init__(self, rounds: Iterable[Round], name: str = "") -> None:
        rnds = list(rounds)
        while rnds and rnds[-1].is_empty():
            rnds.pop()
        self._rounds: Optional[Tuple[Round, ...]] = tuple(rnds)
        self._name = name
        self._arrays: Optional[ArraySchedule] = None

    @classmethod
    def from_arrays(
        cls, arrays: ArraySchedule, name: Optional[str] = None
    ) -> "Schedule":
        """Lazy object-view facade over a canonical :class:`ArraySchedule`."""
        self = object.__new__(cls)
        self._rounds = None
        self._name = arrays.name if name is None else name
        self._arrays = arrays
        return self

    # ------------------------------------------------------------------
    def _materialized(self) -> Tuple[Round, ...]:
        """The object rounds, built from the arrays on first demand."""
        if self._rounds is None:
            assert self._arrays is not None
            self._rounds = self._arrays.build_rounds()
        return self._rounds

    @property
    def name(self) -> str:
        """Name of the producing algorithm (used in reports)."""
        return self._name

    @property
    def rounds(self) -> Tuple[Round, ...]:
        """All rounds, index = send time (materialises the object view)."""
        return self._materialized()

    @property
    def is_array_backed(self) -> bool:
        """Whether the canonical array form already exists."""
        return self._arrays is not None

    def arrays(
        self, *, n: Optional[int] = None, n_messages: Optional[int] = None
    ) -> ArraySchedule:
        """The canonical :class:`ArraySchedule` form of this schedule.

        For an array-backed schedule this is (a widened view of) the
        stored arrays; otherwise the arrays are packed from the object
        view and memoised.  ``n`` / ``n_messages`` fix the processor and
        message universes (defaults: inferred from the content).
        """
        if self._arrays is None:
            self._arrays = ArraySchedule.from_schedule(self)
        arr = self._arrays
        if n is not None and n > arr.n:
            return arr.widen(n, n_messages)
        if n_messages is not None and n_messages != arr.n_messages:
            return arr.widen(arr.n, n_messages)
        return arr

    @property
    def total_time(self) -> int:
        """The paper's total communication time (number of rounds).

        The last round is sent at ``total_time - 1`` and received at
        ``total_time``.
        """
        if self._rounds is None:
            assert self._arrays is not None
            return self._arrays.total_time
        return len(self._rounds)

    def round_at(self, t: Time) -> Round:
        """The round sent at time ``t`` (empty if past the end)."""
        rounds = self._materialized()
        if 0 <= t < len(rounds):
            return rounds[t]
        return _EMPTY_ROUND

    def transmissions_at(self, t: Time) -> Tuple[Transmission, ...]:
        """Transmissions sent at time ``t``."""
        return self.round_at(t).transmissions

    def total_messages(self) -> int:
        """Total multicasts across all rounds."""
        if self._rounds is None:
            assert self._arrays is not None
            return self._arrays.n_transmissions
        return sum(len(r) for r in self._rounds)

    def total_deliveries(self) -> int:
        """Total point-to-point deliveries across all rounds."""
        if self._rounds is None:
            assert self._arrays is not None
            return self._arrays.delivery_count()
        return sum(r.delivery_count() for r in self._rounds)

    def max_fan_out(self) -> int:
        """Largest multicast fan-out anywhere in the schedule (0 if empty)."""
        if self._rounds is None:
            assert self._arrays is not None
            return self._arrays.max_fan_out()
        return max(
            (tx.fan_out() for r in self._rounds for tx in r), default=0
        )

    def with_name(self, name: str) -> "Schedule":
        """Same schedule carrying a different name."""
        if self._rounds is None:
            assert self._arrays is not None
            return Schedule.from_arrays(self._arrays, name=name)
        out = Schedule((), name=name)
        out._rounds = self._rounds
        out._arrays = self._arrays
        return out

    def __iter__(self) -> Iterator[Round]:
        return iter(self._materialized())

    def __len__(self) -> int:
        return self.total_time

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        if (
            self._arrays is not None
            and other._arrays is not None
            and self._arrays == other._arrays
        ):
            return True
        return self._materialized() == other._materialized()

    def __hash__(self) -> int:
        return hash(self._materialized())

    def __repr__(self) -> str:
        label = f" name={self._name!r}" if self._name else ""
        return f"Schedule(total_time={self.total_time}{label})"


_EMPTY_ROUND = Round(())


class ScheduleBuilder:
    """Accumulates ``send(time, sender, message, destinations)`` events.

    The builder is how the Propagate-Up and Propagate-Down schedules are
    *overlapped* into the ConcurrentUpDown schedule: when the same sender
    sends the same message at the same time in both (steps (U4) and (D3)
    deliberately coincide — Theorem 1), the destination sets are merged
    into a single multicast.  A same-time same-sender event with a
    *different* message raises :class:`ScheduleConflictError` immediately,
    which is exactly the no-interference condition the theorem proves.

    :meth:`build` packs the accumulated events straight into an
    :class:`ArraySchedule` (the returned :class:`Schedule` is the lazy
    facade over it), so schedules assembled through the builder are
    array-backed like the native pipeline's.
    """

    __slots__ = ("_events",)

    def __init__(self) -> None:
        # time -> sender -> (message, set of destinations)
        self._events: Dict[int, Dict[int, Tuple[int, set]]] = {}

    def send(
        self, time: Time, sender: Vertex, message: Message, destinations: VertexSet
    ) -> "ScheduleBuilder":
        """Record that ``sender`` multicasts ``message`` at ``time``.

        Merges with an existing same-time event of the same sender when the
        message matches; raises otherwise.
        """
        if time < 0:
            raise ScheduleError(f"negative send time {time}")
        dests = set(int(d) for d in destinations)
        if not dests:
            return self  # nothing to do; empty multicasts are dropped
        at_time = self._events.setdefault(int(time), {})
        existing = at_time.get(int(sender))
        if existing is None:
            at_time[int(sender)] = (int(message), dests)
        else:
            prev_message, prev_dests = existing
            if prev_message != int(message):
                raise ScheduleConflictError(
                    f"processor {sender} would send both message {prev_message} "
                    f"and message {message} at time {time}"
                )
            prev_dests.update(dests)
        return self

    def merge(self, other: "ScheduleBuilder") -> "ScheduleBuilder":
        """Overlap all events of ``other`` into this builder."""
        for time, at_time in other._events.items():
            for sender, (message, dests) in at_time.items():
                self.send(time, sender, message, dests)
        return self

    def build(self, name: str = "") -> Schedule:
        """Freeze into an array-backed :class:`Schedule`, validating every round."""
        if not self._events:
            return Schedule((), name=name)
        times: List[int] = []
        senders: List[int] = []
        messages: List[int] = []
        dests: List[Sequence[int]] = []
        max_id = -1
        min_id = 0
        for t, at_time in self._events.items():
            for s, (m, ds) in at_time.items():
                times.append(t)
                senders.append(s)
                messages.append(m)
                dests.append(tuple(ds))
                top = max(ds)
                low = min(ds)
                if s > top:
                    top = s
                if s < low:
                    low = s
                if top > max_id:
                    max_id = top
                if low < min_id:
                    min_id = low
        if min_id < 0 or max_id >= _MAX_PACKED_ID:
            return self._build_objects(name)  # ids the mask cannot pack
        n = max_id + 1
        arrays = ArraySchedule.from_events(
            np.asarray(times, dtype=np.int64),
            np.asarray(senders, dtype=np.int64),
            np.asarray(messages, dtype=np.int64),
            _masks_from_dest_lists(dests, n),
            n=n,
            name=name,
        )
        return Schedule.from_arrays(arrays)

    def _build_objects(self, name: str) -> Schedule:
        """Object-path fallback for ids the packed mask cannot represent."""
        horizon = max(self._events) + 1
        rounds: List[Round] = []
        for t in range(horizon):
            at_time = self._events.get(t, {})
            rounds.append(
                Round(
                    Transmission(sender=s, message=m, destinations=frozenset(d))
                    for s, (m, d) in at_time.items()
                )
            )
        return Schedule(rounds, name=name)

    @staticmethod
    def from_schedule(schedule: Schedule) -> "ScheduleBuilder":
        """Builder pre-loaded with every event of an existing schedule."""
        builder = ScheduleBuilder()
        for t, rnd in enumerate(schedule):
            for tx in rnd:
                builder.send(t, tx.sender, tx.message, tx.destinations)
        return builder


def merge_schedules(first: Schedule, second: Schedule, name: str = "") -> Schedule:
    """Overlap two schedules into one (the ConcurrentUpDown combination).

    Array-backed inputs merge natively (their event rows are concatenated
    and re-canonicalised); object inputs go through the builder.  Either
    way a :class:`ScheduleConflictError` is raised when the overlap
    breaks a model rule — by Theorem 1 this never happens for the
    Propagate-Up / Propagate-Down pair.
    """
    if first.is_array_backed and second.is_array_backed:
        a = first.arrays()
        b = second.arrays()
        n = max(a.n, b.n)
        a, b = a.widen(n), b.widen(n)
        merged = ArraySchedule.from_events(
            np.concatenate([a.round.astype(np.int64), b.round.astype(np.int64)]),
            np.concatenate([a.sender.astype(np.int64), b.sender.astype(np.int64)]),
            np.concatenate([a.message.astype(np.int64), b.message.astype(np.int64)]),
            np.vstack([a.dest_mask, b.dest_mask]),
            n=n,
            n_messages=max(a.n_messages, b.n_messages),
            name=name,
        )
        return Schedule.from_arrays(merged)
    builder = ScheduleBuilder.from_schedule(first)
    builder.merge(ScheduleBuilder.from_schedule(second))
    return builder.build(name=name)
