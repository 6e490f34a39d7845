"""Unit tests for the round-based execution engine."""

import pytest

from repro.core.schedule import Round, Schedule, Transmission
from repro.exceptions import IncompleteGossipError, ModelViolationError
from repro.networks import topologies
from repro.networks.graph import Graph
from repro.simulator.engine import execute_schedule


def tx(sender, message, dests):
    return Transmission(sender=sender, message=message, destinations=frozenset(dests))


def sched(*rounds):
    return Schedule([Round(r) for r in rounds])


class TestBasicExecution:
    def test_single_hop(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(
            g, sched([tx(0, 0, {1}), tx(1, 1, {0})]), require_complete=True
        )
        assert result.complete
        assert result.total_time == 1
        assert result.completion_times == [1, 1]

    def test_empty_schedule_incomplete(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(g, Schedule([]))
        assert not result.complete
        assert result.completion_times == [None, None]

    def test_single_vertex_trivially_complete(self):
        result = execute_schedule(Graph(1, []), Schedule([]))
        assert result.complete
        assert result.completion_times == [0]


class TestReceiveBeforeSend:
    def test_forward_same_round_as_arrival(self):
        """A message sent at t-1 arrives at t and may be forwarded at t."""
        g = topologies.path_graph(3)
        s = sched(
            [tx(0, 0, {1})],          # round 0: 0 -> 1
            [tx(1, 0, {2})],          # round 1: 1 forwards what arrived at t=1
        )
        result = execute_schedule(g, s)
        assert result.final_holds[2] & 1

    def test_forward_too_early_rejected(self):
        """Forwarding in the same round it was *sent* is impossible."""
        g = topologies.path_graph(3)
        s = sched([tx(0, 0, {1}), tx(1, 0, {2})])  # 1 does not hold 0 yet
        with pytest.raises(ModelViolationError, match="does not hold"):
            execute_schedule(g, s)


class TestModelEnforcement:
    def test_possession_required(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ModelViolationError, match="does not hold"):
            execute_schedule(g, sched([tx(0, 1, {1})]))

    def test_adjacency_required(self):
        g = topologies.path_graph(3)
        with pytest.raises(ModelViolationError, match="not an adjacent"):
            execute_schedule(g, sched([tx(0, 0, {2})]))

    @pytest.mark.parametrize(
        "form, message",
        # The array form rejects negative ids at construction.
        [("objects", -1), ("objects", 64), ("objects", 200), ("arrays", 64), ("arrays", 200)],
    )
    def test_out_of_range_message_never_held(self, form, message):
        """Message ids outside [0, n_messages) are not-held violations on
        every input form (they used to surface as a bare ValueError or
        IndexError, or message -1 as message 63)."""
        g = topologies.path_graph(64)
        s = sched([tx(63, message, {62})])
        if form == "arrays":
            s = Schedule.from_arrays(s.arrays(n=64))
        with pytest.raises(
            ModelViolationError,
            match=rf"at time 0 processor 63 sends message {message} it does not hold",
        ):
            execute_schedule(g, s)

    def test_multicast_to_neighbors_ok(self):
        g = topologies.star_graph(4)
        result = execute_schedule(g, sched([tx(0, 0, {1, 2, 3})]))
        for v in (1, 2, 3):
            assert result.final_holds[v] & 1

    def test_require_complete_raises_with_missing_report(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(IncompleteGossipError, match="missing"):
            execute_schedule(g, sched([tx(0, 0, {1})]), require_complete=True)


class TestBookkeeping:
    def test_duplicates_counted(self):
        g = Graph(2, [(0, 1)])
        s = sched([tx(0, 0, {1})], [tx(0, 0, {1})], [tx(1, 1, {0})])
        result = execute_schedule(g, s, require_complete=True)
        assert result.duplicate_deliveries == 1

    def test_arrival_log(self):
        g = topologies.path_graph(3)
        s = sched([tx(0, 0, {1})], [tx(1, 0, {2})])
        result = execute_schedule(g, s, record_arrivals=True)
        assert [(ev.time, ev.receiver, ev.sender, ev.message) for ev in result.arrivals] == [
            (1, 1, 0, 0),
            (2, 2, 1, 0),
        ]

    def test_no_arrival_log_by_default(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(g, sched([tx(0, 0, {1})]))
        assert result.arrivals == []

    def test_makespan(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(
            g, sched([tx(0, 0, {1}), tx(1, 1, {0})]), require_complete=True
        )
        assert result.makespan == 1

    def test_makespan_none_when_incomplete(self):
        g = Graph(2, [(0, 1)])
        result = execute_schedule(g, sched([tx(0, 0, {1})]))
        assert not result.complete
        assert result.makespan is None

    def test_custom_initial_holds(self):
        """Labeled holdings: vertex v starts with its DFS label."""
        g = Graph(2, [(0, 1)])
        s = sched([tx(0, 1, {1}), tx(1, 0, {0})])
        result = execute_schedule(
            g, s, initial_holds=[0b10, 0b01], require_complete=True
        )
        assert result.complete

    def test_final_holds(self):
        g = Graph(3, [(0, 1), (1, 2)])
        s = sched([tx(1, 1, {0, 2})])
        result = execute_schedule(g, s)
        assert result.final_holds == [0b011, 0b010, 0b110]
