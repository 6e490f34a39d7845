"""The array-native schedule pipeline: structure, round-trips, parity.

Covers the :class:`~repro.core.schedule.ArraySchedule` canonical form
end to end:

* structural invariants of the flat columns and the destination-mask
  matrix, the analytic ``nbytes``, and the npz round-trip;
* losslessness of the array <-> object-view round-trip (property-tested
  over random labeled trees);
* bit-identity of the array-built ConcurrentUpDown against the seed
  per-vertex builder across every topology family and random trees;
* identical diagnostics from every ``repro.lint`` rule on both forms;
* the packed possession bitset (:class:`PackedHoldState`) and the
  engine agreeing with the independent reference executor
  (:mod:`repro.simulator.reference`) — ``int.bit_count()`` parity round
  by round, then exact hold sets and error loci;
* the builder loading an existing schedule.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from repro.analysis.sweep import FAMILIES, family_instance
from repro.core.concurrent_updown import (
    concurrent_updown,
    concurrent_updown_reference,
)
from repro.core.gossip import gossip
from repro.core.schedule import (
    ArraySchedule,
    Schedule,
    ScheduleBuilder,
)
from repro.exceptions import ScheduleConflictError, ScheduleError
from repro.lint import lint_schedule
from repro.networks.builders import tree_to_graph
from repro.networks.spanning_tree import minimum_depth_spanning_tree
from repro.core.possession import PackedHoldState
from repro.exceptions import ModelViolationError
from repro.simulator.engine import execute_schedule
from repro.simulator.reference import reference_execute
from repro.simulator.state import bits_of, labeled_holdings
from repro.tree.labeling import LabeledTree
from tests.conftest import labeled_trees


def _plan(spec="grid:16"):
    return gossip(spec)


class TestStructure:
    def test_canonical_columns(self):
        arr = _plan().arrays()
        assert arr.round.dtype == np.int32
        assert arr.sender.dtype == np.int32
        assert arr.message.dtype == np.int32
        assert arr.dest_mask.dtype == np.uint64
        # strict (round, sender) lexicographic order
        key = arr.round.astype(np.int64) * arr.n + arr.sender
        assert np.all(np.diff(key) > 0)

    def test_nbytes_is_analytic(self):
        plan = _plan()
        arr = plan.arrays()
        words = (arr.n + 63) // 64
        expected = (
            arr.round.nbytes + arr.sender.nbytes + arr.message.nbytes
            + len(arr.round) * words * 8
        )
        assert arr.nbytes == expected

    def test_nbytes_does_not_materialise_lazy_masks(self):
        arr = _plan().arrays()
        if arr._dest_mask is not None:
            pytest.skip("mask already materialised for this build")
        _ = arr.nbytes
        assert arr._dest_mask is None

    def test_round_ptr_and_destination_pairs(self):
        arr = _plan().arrays()
        ptr = arr.round_ptr
        assert ptr[0] == 0 and ptr[-1] == len(arr.round)
        assert np.all(np.diff(ptr) >= 0)
        row, dest = arr.destination_pairs()
        assert len(row) == arr.delivery_count()
        assert np.all(np.diff(row) >= 0)
        assert dest.min() >= 0 and dest.max() < arr.n

    def test_widen_preserves_contents(self):
        arr = _plan("path:9").arrays()
        wide = arr.widen(200)
        assert wide.n == 200
        assert np.array_equal(wide.round, arr.round)
        assert wide.dest_mask.shape[1] == (200 + 63) // 64
        with pytest.raises(ScheduleError):
            arr.widen(2)


class TestNpzRoundTrip:
    def test_lossless(self, tmp_path):
        arr = _plan().arrays()
        path = tmp_path / "sched.npz"
        arr.to_npz(path)
        back = ArraySchedule.from_npz(path)
        assert back == arr
        assert back.name == arr.name
        assert back.n == arr.n and back.n_messages == arr.n_messages

    def test_empty_schedule(self, tmp_path):
        arr = gossip("path:1").arrays()
        path = tmp_path / "empty.npz"
        arr.to_npz(path)
        back = ArraySchedule.from_npz(path)
        assert back == arr and back.total_time == 0


class TestValidation:
    def _cols(self):
        t = np.array([0, 1], dtype=np.int64)
        s = np.array([0, 1], dtype=np.int64)
        m = np.array([0, 1], dtype=np.int64)
        return t, s, m

    def test_self_send_rejected(self):
        t, s, m = self._cols()
        masks = np.zeros((2, 1), dtype=np.uint64)
        masks[0, 0] = 1  # processor 0 multicasts to itself
        masks[1, 0] = 1
        with pytest.raises(ScheduleError):
            ArraySchedule.from_events(t, s, m, masks, n=4)

    def test_receiver_collision_rejected(self):
        t = np.array([0, 0], dtype=np.int64)
        s = np.array([0, 1], dtype=np.int64)
        m = np.array([0, 1], dtype=np.int64)
        masks = np.zeros((2, 1), dtype=np.uint64)
        masks[0, 0] = 1 << 2
        masks[1, 0] = 1 << 2  # processor 2 receives twice in round 0
        with pytest.raises(ScheduleConflictError):
            ArraySchedule.from_events(t, s, m, masks, n=4)

    def test_negative_message_rejected(self):
        """Message -1 used to pass and be read as message 63 (word -1)."""
        masks = np.zeros((1, 1), dtype=np.uint64)
        masks[0, 0] = 1 << 62
        with pytest.raises(ScheduleError, match="negative message id -1"):
            ArraySchedule(
                np.array([0]), np.array([63]), np.array([-1]), masks, n=64
            )

    def test_negative_message_rejected_from_npz(self, tmp_path):
        path = tmp_path / "forged.npz"
        np.savez(
            path,
            round=np.array([0], dtype=np.int32),
            sender=np.array([63], dtype=np.int32),
            message=np.array([-1], dtype=np.int32),
            dest_mask=np.array([[1 << 62]], dtype=np.uint64),
            meta=np.array([64, 64], dtype=np.int64),
            name=np.array("forged"),
        )
        with pytest.raises(ScheduleError, match="negative message id -1"):
            ArraySchedule.from_npz(path)

    def test_lazy_mask_validation_is_deferred(self):
        t, s, m = self._cols()

        def bad_masks():
            masks = np.zeros((2, 1), dtype=np.uint64)
            masks[0, 0] = 1  # self-send, only discovered on materialise
            masks[1, 0] = 1 << 2
            return masks

        fans = np.array([1, 1], dtype=np.int64)
        arr = ArraySchedule._from_canonical(
            t.astype(np.int32), s.astype(np.int32), m.astype(np.int32),
            None, fans, n=4, mask_builder=bad_masks,
        )
        with pytest.raises(ScheduleError):
            _ = arr.dest_mask


class TestFacadeLaziness:
    def test_counters_answer_from_arrays(self):
        plan = _plan()
        sched = plan.schedule
        assert sched.is_array_backed
        assert sched._rounds is None
        _ = sched.total_time
        _ = sched.total_deliveries()
        _ = sched.max_fan_out()
        assert sched._rounds is None  # nothing materialised yet
        _ = sched.rounds
        assert sched._rounds is not None

    def test_plan_accessors(self):
        plan = _plan()
        arr = plan.arrays()
        assert isinstance(arr, ArraySchedule)
        assert plan.rounds() == plan.schedule.rounds
        assert arr is plan.schedule.arrays()

    def test_facade_equals_object_schedule(self):
        plan = _plan("path:8")
        objects = Schedule(plan.schedule.rounds, name=plan.schedule.name)
        assert plan.schedule == objects


@given(labeled=labeled_trees(max_n=24))
@settings(max_examples=40, deadline=None)
def test_array_object_round_trip_lossless(labeled):
    """arrays -> rounds -> arrays is the identity (property-tested)."""
    arr = concurrent_updown(labeled).arrays()
    rebuilt = ArraySchedule.from_schedule(
        Schedule(arr.build_rounds(), name=arr.name), n=arr.n,
        n_messages=arr.n_messages,
    )
    assert rebuilt == arr


@given(labeled=labeled_trees(max_n=24))
@settings(max_examples=40, deadline=None)
def test_array_pipeline_matches_seed_builder_random(labeled):
    """Round-for-round bit-identity on hypothesis-random trees."""
    fast = concurrent_updown(labeled)
    seed = concurrent_updown_reference(labeled)
    assert fast.rounds == seed.rounds
    if labeled.n > 1:
        # n = 1 schedules are empty: the object-built seed cannot infer
        # the processor universe, so only the rounds compare there.
        assert fast.arrays() == seed.arrays()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_array_pipeline_matches_seed_builder_families(family):
    """Round-for-round bit-identity on every topology family."""
    graph = family_instance(family, 24)
    labeled = LabeledTree(minimum_depth_spanning_tree(graph, method="pruned"))
    fast = concurrent_updown(labeled)
    seed = concurrent_updown_reference(labeled)
    assert fast.arrays() == seed.arrays()
    assert fast.rounds == seed.rounds


class TestLintDifferential:
    @pytest.mark.parametrize("spec", ["grid:16", "path:12", "star:10", "random:24"])
    def test_identical_diagnostics_on_both_forms(self, spec):
        """Every lint rule judges the array and object forms identically."""
        plan = gossip(spec)
        on_arrays = lint_schedule(plan.graph, plan.arrays(), plan=plan)
        on_objects = lint_schedule(
            plan.graph, Schedule(plan.rounds(), name=plan.schedule.name),
            plan=plan,
        )
        assert len(on_arrays.rules_run) == 18
        assert on_arrays.rules_run == on_objects.rules_run
        assert on_arrays.diagnostics == on_objects.diagnostics
        assert on_arrays.name == on_objects.name


def _label_sets(plan):
    return [{int(label)} for label in plan.labeled.labels()]


class TestPackedStateParity:
    @pytest.mark.parametrize("spec", ["grid:25", "path:17", "random:32"])
    def test_fast_path_matches_object_engine(self, spec):
        plan = gossip(spec)
        holds = labeled_holdings(plan.labeled.labels())
        fast = execute_schedule(
            plan.graph, plan.schedule, initial_holds=holds,
            require_complete=True,
        )
        ref = reference_execute(
            plan.graph, plan.schedule, initial_holds=_label_sets(plan)
        )
        assert fast.complete == ref.complete
        assert tuple(fast.completion_times) == ref.completion_times
        assert tuple(frozenset(bits_of(h)) for h in fast.final_holds) == ref.final_holds
        assert fast.makespan == max(ref.completion_times)
        # Every delivery either adds a message or is a duplicate.
        gained = sum(len(h) for h in ref.final_holds) - plan.graph.n
        assert fast.duplicate_deliveries == plan.schedule.total_deliveries() - gained

    def test_bit_count_parity_per_round(self):
        """Step the packed state round by round; after every round its
        popcounts, then its exact sets, match the reference on that prefix."""
        plan = gossip("grid:16")
        packed = PackedHoldState(
            plan.graph.n, initial=labeled_holdings(plan.labeled.labels())
        )
        rounds = plan.rounds()
        for t, rnd in enumerate(rounds, start=1):
            recv, msg = [], []
            for tx in rnd:
                for d in tx.destinations:
                    recv.append(d)
                    msg.append(tx.message)
            packed.deliver_round(
                np.asarray(recv, dtype=np.int64),
                np.asarray(msg, dtype=np.int64),
                t,
            )
            ref = reference_execute(
                plan.graph, Schedule(rounds[:t]), initial_holds=_label_sets(plan)
            )
            mine = packed.snapshot()
            assert [h.bit_count() for h in mine] == [len(h) for h in ref.final_holds]
            assert [frozenset(bits_of(h)) for h in mine] == list(ref.final_holds)
        assert packed.all_complete() and ref.complete
        assert tuple(packed.completion_times()) == ref.completion_times
        assert packed.duplicate_deliveries == 0

    def test_fast_path_reports_possession_violation(self):
        """The engine stops at the reference's violation, receive-before-send,
        and names what the sender holds."""
        plan = gossip("path:6")
        wrong_holds = [1 << 0] * plan.graph.n  # nobody holds their label
        with pytest.raises(ModelViolationError) as fast_err:
            execute_schedule(plan.graph, plan.schedule, initial_holds=wrong_holds)
        with pytest.raises(ModelViolationError) as ref_err:
            reference_execute(
                plan.graph, plan.schedule, initial_holds=[{0}] * plan.graph.n
            )
        t, s, m = (int(x) for x in re.match(
            r"at time (\d+) processor (\d+) sends message (\d+) it does not "
            r"hold \(holds \[0\]\)$", str(fast_err.value),
        ).groups())
        assert str(ref_err.value) == f"reference: {s} lacks message {m} at {t}"


class TestDeprecations:
    """The builder's loader, once behind a deprecation fence for
    array-backed schedules, now loads every schedule the same way."""

    def test_from_schedule_round_trips_array_backed(self):
        plan = _plan("path:6")
        builder = ScheduleBuilder.from_schedule(plan.schedule)
        assert builder.build(name=plan.schedule.name) == plan.schedule

    def test_builder_builds_arrays_underneath(self):
        builder = ScheduleBuilder()
        builder.send(0, 0, 0, (1,))
        builder.send(1, 1, 0, (2,))
        sched = builder.build(name="tiny")
        assert sched.is_array_backed
        assert sched.arrays().n_transmissions == 2

    def test_object_constructed_schedule_does_not_warn(self):
        plan = _plan("path:6")
        objects = Schedule(plan.rounds(), name="objects")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ScheduleBuilder.from_schedule(objects)
