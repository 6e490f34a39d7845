"""Algebraic (network-coded) gossip over GF(2).

Haeupler-style algebraic gossip (*Tighter Worst-Case Bounds on
Algebraic Gossip*, PAPERS.md): instead of forwarding individual
rumours, each round every processor transmits a **uniform random GF(2)
linear combination** of everything in its knowledge space, and a
processor is *complete* when the combinations it has accumulated span
the full message space — rank ``n`` — at which point it can decode
every rumour by Gaussian elimination.  Coding removes the coupon
collector from gossip: a random combination of an informed span is
innovative to any receiver whose span differs, with probability ≥ 1/2,
so no particular rumour is ever the bottleneck.

Representation is bit-parallel throughout: a GF(2) vector over the
``n``-dimensional message space is a Python int interpreted as packed
uint64 words — bit ``m`` is the coefficient of message ``m`` — XOR is
vector addition, and the combination draw is
:meth:`repro.core.rng.SplitMix64.bit_subset` (each coefficient flips an
independent fair coin, one 64-bit word at a time).  Per-vertex decoding
state is an incremental Gaussian-elimination basis
(:class:`RankTracker`): pivot = highest set bit, so an insert is at
most ``rank`` XORs and completion detection is ``rank == n``.

Two engines, mirroring :mod:`repro.core.epidemic`:

* :func:`run_coded_gossip` — the research engine on arbitrary graphs:
  packets are *pure* random combinations of the sender's basis, which
  do not name any single message and therefore cannot be replayed
  through the possession-checking simulator (a receiver can hold the
  span of ``{m1 ^ m2, m2 ^ m3}`` without holding any ``m_i`` — there is
  a concrete 3-vertex counterexample in ``tests/core/test_coded.py``).
  Round structure, fault model and conflict rules are identical to the
  epidemic engine; only the payload algebra differs.
* :func:`systematic_coded_schedule` — the **systematic projection**
  registered as algorithm ``"coded"``: combinations are restricted to
  the unit messages the sender actually holds (support ⊆ holdings), and
  the scheduled label is a seeded-random element of the support, so the
  transcript is a model-valid :class:`~repro.core.schedule.Schedule`
  the strict engine, the linter and the lossy/chaos engines all accept.
  The receiver still runs genuine incremental elimination on the full
  combination, so rank completion arrives no later than unit-holding
  completion (and strictly earlier whenever a multi-unit combination is
  innovative beyond its label).

All randomness flows through :mod:`repro.core.rng`
(``repro.check.codelint`` rule 6), with tags disjoint from both
the epidemic and the lossy-model streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import ReproError
from ..networks.builders import tree_to_graph
from ..networks.graph import Graph
from ..simulator.lossy import FaultModel
from ..tree.labeling import LabeledTree
from .epidemic import (
    _random_bit,
    _resolve_receivers,
    _surviving_destinations,
    default_epidemic_horizon,
)
from .gossip import register_algorithm
from .rng import SplitMix64, keyed_u64
from .schedule import Round, Schedule, Transmission

__all__ = [
    "RankTracker",
    "CodedPacket",
    "CodedResult",
    "run_coded_gossip",
    "systematic_coded_schedule",
]

#: Seed used by the registry entry (see ``epidemic.REGISTRY_SEED``).
REGISTRY_SEED = 7

# Domain-separation tags (disjoint from epidemic 0xE4x and lossy tags).
_TAG_COMBO = 0xC0D1
_TAG_DEST = 0xC0D2
_TAG_ORDER = 0xC0D3
_TAG_LABEL = 0xC0D4


class RankTracker:
    """Incremental GF(2) Gaussian elimination over the message space.

    Rows are Python-int bitvectors; the basis maps pivot (highest set
    bit) to the unique stored row with that pivot.  :meth:`insert`
    reduces an incoming vector against the basis and reports whether it
    was *innovative* (increased the rank).
    """

    __slots__ = ("_basis",)

    def __init__(self) -> None:
        self._basis: Dict[int, int] = {}

    @property
    def rank(self) -> int:
        """Dimension of the span accumulated so far."""
        return len(self._basis)

    def insert(self, vector: int) -> bool:
        """Reduce ``vector`` into the basis; True iff it was innovative."""
        while vector:
            pivot = vector.bit_length() - 1
            row = self._basis.get(pivot)
            if row is None:
                self._basis[pivot] = vector
                return True
            vector ^= row
        return False

    def rows(self) -> Tuple[int, ...]:
        """Basis rows in descending pivot order (deterministic)."""
        return tuple(self._basis[p] for p in sorted(self._basis, reverse=True))

    def spans(self, vector: int) -> bool:
        """True iff ``vector`` lies in the accumulated span."""
        while vector:
            row = self._basis.get(vector.bit_length() - 1)
            if row is None:
                return False
            vector ^= row
        return True


@dataclass(frozen=True)
class CodedPacket:
    """One transmitted combination: ``coeffs`` bit ``m`` ⇔ message ``m``."""

    sender: int
    coeffs: int
    destinations: Tuple[int, ...]

    def words(self) -> Tuple[int, ...]:
        """The coefficient vector as packed little-endian uint64 words."""
        mask = (1 << 64) - 1
        out: List[int] = []
        c = self.coeffs
        while True:
            out.append(c & mask)
            c >>= 64
            if not c:
                return tuple(out)


@dataclass(frozen=True)
class CodedResult:
    """Outcome of one algebraic-gossip run (see module docstring)."""

    seed: int
    complete: bool
    rounds: int
    ranks: Tuple[int, ...]
    completion_times: Tuple[Optional[int], ...]
    packet_rounds: Tuple[Tuple[CodedPacket, ...], ...]
    packets_sent: int
    deliveries: int
    delivered: int
    innovative: int
    redundant: int
    lost: int
    suppressed_sends: int

    @property
    def completion_round(self) -> Optional[int]:
        """Latest per-vertex rank-``n`` time (``None`` when incomplete)."""
        if not self.complete:
            return None
        return max(t for t in self.completion_times if t is not None)

    @property
    def redundancy(self) -> float:
        """Fraction of received combinations that were non-innovative."""
        return self.redundant / self.delivered if self.delivered else 0.0


def _draw_combination(rng: SplitMix64, rows: Tuple[int, ...]) -> int:
    """A uniform random non-zero GF(2) combination of ``rows``.

    Each row joins with an independent fair coin; the all-zero draw
    falls back to a single random row so every packet carries
    information (the standard non-zero-combination convention).
    """
    subset = rng.bit_subset((1 << len(rows)) - 1)
    if subset == 0:
        return rows[rng.randrange(len(rows))]
    vector = 0
    while subset:
        low = subset & -subset
        vector ^= rows[low.bit_length() - 1]
        subset ^= low
    return vector


def run_coded_gossip(
    graph: Graph,
    *,
    seed: int = 0,
    fanout: int = 1,
    max_rounds: Optional[int] = None,
    model: Optional[FaultModel] = None,
) -> CodedResult:
    """Run algebraic gossip until every vertex reaches rank ``n``.

    Per round every vertex multicasts one uniform random non-zero GF(2)
    combination of its basis to ``fanout`` random neighbours, under the
    paper's one-send / one-receive round discipline (contested receivers
    resolved exactly as in the epidemic engine) and an optional seeded
    :class:`~repro.simulator.lossy.FaultModel` applied in the canonical
    lossy-engine hazard order.

    hot-loop-ok: the round loop *is* the protocol (data-dependent coin
    flips per vertex) — a baseline, not a planner hot path.
    """
    if fanout < 1:
        raise ReproError(f"fanout must be >= 1, got {fanout}")
    n = graph.n
    cap = default_epidemic_horizon(n) if max_rounds is None else max_rounds
    if cap < 0:
        raise ReproError(f"max_rounds must be >= 0, got {cap}")
    null_model = model is None or model.is_null

    trackers = [RankTracker() for _ in range(n)]
    for v in range(n):
        trackers[v].insert(1 << v)
    completion: List[Optional[int]] = [0 if n == 1 else None for _ in range(n)]
    pending: List[Tuple[int, int]] = []  # (receiver, coeffs)
    packet_rounds: List[Tuple[CodedPacket, ...]] = []
    packets_sent = deliveries = delivered = innovative = redundant = 0
    lost = suppressed = 0

    t = 0
    while True:
        for receiver, coeffs in pending:
            if trackers[receiver].insert(coeffs):
                innovative += 1
                if trackers[receiver].rank == n and completion[receiver] is None:
                    completion[receiver] = t
            else:
                redundant += 1
            delivered += 1
        pending = []
        if all(tr.rank == n for tr in trackers) or t >= cap:
            break

        intents: List[Tuple[int, int, Tuple[int, ...]]] = []
        for v in range(n):
            neigh = graph.neighbors(v)
            if not neigh:
                continue
            rng = SplitMix64(keyed_u64(seed, _TAG_COMBO, t, v))
            vector = _draw_combination(rng, trackers[v].rows())
            dest_rng = SplitMix64(keyed_u64(seed, _TAG_DEST, t, v))
            intents.append((v, vector, tuple(dest_rng.sample(neigh, fanout))))

        order_rng = SplitMix64(keyed_u64(seed, _TAG_ORDER, t))
        resolved = _resolve_receivers(intents, order_rng)
        packet_rounds.append(
            tuple(
                CodedPacket(sender=s, coeffs=c, destinations=d)
                for s, c, d in resolved
            )
        )
        for sender, coeffs, dests in resolved:
            packets_sent += 1
            deliveries += len(dests)
            if null_model:
                survivors: Optional[Sequence[int]] = dests
            else:
                assert model is not None
                survivors, lost_here = _surviving_destinations(model, t, sender, dests)
                lost += lost_here
            if survivors is None:
                suppressed += 1
                continue
            for d in survivors:
                pending.append((d, coeffs))
        t += 1

    return CodedResult(
        seed=seed,
        complete=all(tr.rank == n for tr in trackers),
        rounds=len(packet_rounds),
        ranks=tuple(tr.rank for tr in trackers),
        completion_times=tuple(completion),
        packet_rounds=tuple(packet_rounds),
        packets_sent=packets_sent,
        deliveries=deliveries,
        delivered=delivered,
        innovative=innovative,
        redundant=redundant,
        lost=lost,
        suppressed_sends=suppressed,
    )


def systematic_coded_schedule(
    graph: Graph,
    *,
    seed: int = 0,
    fanout: int = 1,
    max_rounds: Optional[int] = None,
    messages: Optional[Sequence[int]] = None,
) -> Schedule:
    """The systematic projection of coded gossip as a model-valid schedule.

    Combinations are restricted to unit messages the sender holds, the
    scheduled label is a seeded-random element of the support, and the
    run terminates when every vertex holds every unit (which implies
    rank ``n``: each acquired unit is inserted into the receiver's
    basis).  See the module docstring for why the *pure* algebraic
    engine cannot be projected this way.

    Raises :class:`~repro.exceptions.ReproError` on non-completion
    within the round budget (disconnected network).

    hot-loop-ok: baseline protocol loop, not a planner hot path.
    """
    if fanout < 1:
        raise ReproError(f"fanout must be >= 1, got {fanout}")
    n = graph.n
    origin = list(range(n)) if messages is None else [int(m) for m in messages]
    if len(origin) != n:
        raise ReproError(f"messages has {len(origin)} entries for n={n} processors")
    full = (1 << n) - 1
    holds = [0] * n
    trackers = [RankTracker() for _ in range(n)]
    for v, m in enumerate(origin):
        if not 0 <= m < n:
            raise ReproError(f"vertex {v} originates out-of-range message {m}")
        holds[v] |= 1 << m
        trackers[v].insert(1 << m)
    cap = default_epidemic_horizon(n) if max_rounds is None else max_rounds

    rounds: List[Round] = []
    pending: List[Tuple[int, int, int]] = []  # (receiver, label, coeffs)
    t = 0
    while True:
        for receiver, label, coeffs in pending:
            holds[receiver] |= 1 << label
            trackers[receiver].insert(1 << label)
            trackers[receiver].insert(coeffs)
        pending = []
        if all(h == full for h in holds) or t >= cap:
            break

        intents: List[Tuple[int, Tuple[int, int], Tuple[int, ...]]] = []
        for v in range(n):
            neigh = graph.neighbors(v)
            if not neigh:
                continue
            rng = SplitMix64(keyed_u64(seed, _TAG_COMBO, t, v))
            support = rng.bit_subset(holds[v])
            if support == 0:
                support = 1 << _random_bit(rng, holds[v])
            label_rng = SplitMix64(keyed_u64(seed, _TAG_LABEL, t, v))
            label = _random_bit(label_rng, support)
            dest_rng = SplitMix64(keyed_u64(seed, _TAG_DEST, t, v))
            intents.append(
                (v, (label, support), tuple(dest_rng.sample(neigh, fanout)))
            )

        order_rng = SplitMix64(keyed_u64(seed, _TAG_ORDER, t))
        txs: List[Transmission] = []
        for sender, (label, support), dests in _resolve_receivers(intents, order_rng):
            txs.append(Transmission(sender=sender, message=label, destinations=dests))
            for d in dests:
                pending.append((d, label, support))
        rounds.append(Round(txs))
        t += 1

    if not all(h == full for h in holds):
        raise ReproError(
            f"systematic coded gossip did not complete within {len(rounds)} "
            "rounds (disconnected network?)"
        )
    return Schedule(rounds, name=f"Coded-systematic(seed={seed})")


@register_algorithm("coded")
def coded_gossip(labeled: LabeledTree) -> Schedule:
    """Systematic coded gossip on the labelled spanning tree (DFS labels)."""
    return systematic_coded_schedule(
        tree_to_graph(labeled.tree),
        seed=REGISTRY_SEED,
        messages=labeled.labels(),
    )
