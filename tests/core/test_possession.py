"""The possession kernel (`repro.core.possession`): columns, codes, modes."""

import numpy as np
import pytest

from repro.core.gossip import gossip
from repro.core.possession import (
    COLLISION,
    NON_EDGE,
    NOT_HELD,
    RANGE,
    REDUNDANT,
    VIOLATIONS,
    PackedHoldState,
    columns_of,
    propagate,
)
from repro.core.schedule import Round, Schedule, Transmission
from repro.exceptions import ReproError, SimulationError
from repro.networks import topologies
from repro.simulator.state import labeled_holdings


def tx(sender, message, dests):
    return Transmission(sender=sender, message=message, destinations=frozenset(dests))


def run(graph, rounds, **options):
    return propagate(columns_of(rounds), graph, PackedHoldState(graph.n), **options)


class TestColumns:
    def test_array_and_object_forms_agree(self):
        plan = gossip("grid:9")
        a = columns_of(plan.arrays())
        b = columns_of(Schedule(plan.rounds()))
        assert a.total_time == b.total_time
        for name in ("round", "sender", "message", "pair_row", "pair_dest"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_raw_rounds_keep_order_and_empty_rounds(self):
        cols = columns_of([[tx(3, 0, {2, 1}), tx(0, 1, {4})], [], []])
        assert cols.total_time == 3
        assert cols.sender.tolist() == [3, 0]
        assert cols.pair_row.tolist() == [0, 0, 1]
        assert cols.pair_dest.tolist() == [1, 2, 4]  # ascending per row

    def test_non_transmission_rejected(self):
        with pytest.raises(ReproError, match="Transmission"):
            columns_of([[(0, 1, {2})]])


class TestCodes:
    def test_clean_plan_has_no_codes(self):
        plan = gossip("grid:16")
        holds = PackedHoldState(16, initial=labeled_holdings(plan.labeled.labels()))
        out = propagate(columns_of(plan.arrays()), plan.graph, holds)
        assert not out.row_code.any() and not out.pair_code.any()
        assert out.landed.all() and holds.all_complete()
        assert out.violation is None

    def test_static_codes(self):
        g = topologies.path_graph(4)  # 0-1-2-3
        out = run(g, [[tx(0, 0, {1}), tx(0, 0, {2}), tx(9, 0, {1}), tx(1, 1, {7})]])
        assert out.row_code.tolist() == [0, COLLISION, RANGE, 0]
        # deliveries: 0->1, 0->2 (non-edge), 9->1 (receiver collision), 1->7
        assert out.pair_code.tolist() == [0, NON_EDGE, COLLISION | REDUNDANT, RANGE]

    def test_message_out_of_range_is_never_held(self):
        g = topologies.path_graph(64)
        for message in (-1, 64, 200):
            out = run(g, [[tx(63, message, {62})]])
            assert out.row_code.tolist() == [NOT_HELD]
            assert not out.landed.any()  # no such message to land

    def test_not_held_and_redundant_need_possession(self):
        g = topologies.path_graph(3)
        out = run(g, [[tx(0, 0, {1}), tx(1, 0, {2})], [tx(1, 0, {0})]])
        # 1 forwards message 0 the round it is sent (too early), then
        # sends it back to 0, which already holds it.
        assert out.row_code.tolist() == [0, NOT_HELD, 0]
        assert out.pair_code.tolist() == [0, 0, REDUNDANT]
        assert out.landed.all()  # without suppression the late send still lands

    def test_colliding_round_lands_in_order(self):
        g = topologies.star_graph(4)  # hub 0
        out = run(g, [[tx(0, 0, {1}), tx(2, 2, {1})]])
        assert out.pair_code.tolist() == [0, COLLISION | NON_EDGE]
        assert out.holds.messages_of(1) == [0, 1, 2]  # both land
        out = run(g, [[tx(0, 0, {1}), tx(2, 0, {1})]])
        assert out.row_code.tolist() == [0, NOT_HELD]  # 2 never held message 0
        assert out.pair_code.tolist() == [0, COLLISION | NON_EDGE | REDUNDANT]


class TestModes:
    def test_stop_at_first_violating_row(self):
        g = topologies.path_graph(4)
        holds = PackedHoldState(4)
        out = propagate(
            columns_of([[tx(0, 0, {1})], [tx(2, 2, {3}), tx(1, 0, {3})], [tx(3, 3, {2})]]),
            g, holds, stop_on=VIOLATIONS,
        )
        assert out.violation == 2  # row 2: 1 -> 3 is not an edge
        assert holds.messages_of(1) == [0, 1]  # the state that send saw
        assert out.landed.tolist() == [True, False, False, False]

    def test_suppress_not_held_and_skips(self):
        g = topologies.path_graph(3)
        cols = columns_of([[tx(0, 0, {1})], [tx(1, 0, {2})]])
        out = propagate(
            cols, g, PackedHoldState(3),
            pair_skip=np.array([True, False]), suppress_not_held=True,
        )
        assert out.row_code.tolist() == [0, NOT_HELD]
        assert not out.landed.any()
        out = propagate(
            cols, g, PackedHoldState(3), row_skip=np.array([True, False]),
            suppress_not_held=True,
        )
        assert out.row_code.tolist() == [0, NOT_HELD]  # skipped rows are not checked

    def test_before_send_sees_landed_state(self):
        g = topologies.path_graph(3)
        seen = []
        run(
            g, [[tx(0, 0, {1})], [tx(1, 0, {2})]],
            before_send=lambda t, holds: seen.append(holds.snapshot()),
        )
        assert seen == [[0b001, 0b010, 0b100], [0b001, 0b011, 0b100]]


class TestPackedHoldState:
    def test_completion_and_duplicates(self):
        s = PackedHoldState(2)
        s.deliver_round(np.array([0]), np.array([1]), 3)
        s.deliver_round(np.array([0, 1]), np.array([1, 0]), 5)
        assert s.completion_times() == [3, 5]
        assert s.duplicate_deliveries == 1
        assert s.all_complete() and s.snapshot() == [0b11, 0b11]

    def test_wide_message_universe(self):
        s = PackedHoldState(2, initial=[1 << 130, 1], n_messages=131)
        s.deliver_round(np.array([1]), np.array([130]), 1)
        assert s.messages_of(1) == [0, 130]
        assert s.missing_of(0)[:2] == [0, 1]

    @pytest.mark.parametrize(
        "kwargs",
        [{"n": 0}, {"n": 2, "initial": [1]}, {"n": 2, "initial": [0b100, 1]}],
    )
    def test_invalid_state_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            PackedHoldState(**kwargs)


def test_object_schedule_with_round_objects():
    """A Schedule of Round objects reads through the same loop as raw rounds."""
    g = topologies.path_graph(3)
    schedule = Schedule([Round([tx(0, 0, {1})]), Round([tx(1, 0, {2})])])
    out = propagate(columns_of(schedule), g, PackedHoldState(3))
    assert not out.row_code.any() and out.landed.all()
