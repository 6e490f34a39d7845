"""API-redesign contract: keyword-only front doors, unified network
dispatch, eager registry, memoised plan execution."""

import warnings

import pytest

import repro.simulator.engine as engine_module
from repro.core.gossip import (
    ALGORITHMS,
    gossip,
    gossip_on_tree,
    resolve_network,
)
from repro.exceptions import ReproError
from repro.networks import topologies
from repro.networks.builders import tree_to_graph


class TestKeywordOnlyShims:
    def test_positional_algorithm_gets_typeerror(self):
        g = topologies.path_graph(5)
        with pytest.raises(TypeError, match="positional argument"):
            gossip(g, "simple")
        assert gossip(g, algorithm="simple").algorithm == "simple"

    def test_positional_tree_gets_typeerror(self):
        g = topologies.path_graph(5)
        tree = gossip(g).tree
        with pytest.raises(TypeError, match="positional argument"):
            gossip(g, "concurrent-updown", tree)
        assert gossip(g, algorithm="concurrent-updown", tree=tree).tree == tree

    def test_gossip_on_tree_positional_gets_typeerror(self):
        tree = gossip(topologies.star_graph(5)).tree
        with pytest.raises(TypeError, match="positional argument"):
            gossip_on_tree(tree, "simple")
        assert gossip_on_tree(tree, algorithm="simple").algorithm == "simple"

    def test_execute_positional_gets_typeerror(self):
        plan = gossip(topologies.path_graph(4))
        with pytest.raises(TypeError, match="positional argument"):
            plan.execute(True)
        assert plan.execute(record_arrivals=True).arrivals

    def test_keyword_calls_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            plan = gossip(topologies.path_graph(5), algorithm="simple")
            plan.execute(record_arrivals=True)
            gossip_on_tree(plan.tree, algorithm="simple")

    def test_too_many_positionals_rejected(self):
        g = topologies.path_graph(4)
        with pytest.raises(TypeError):
            gossip(g, "simple", None, "extra")

    def test_gossip_typeerror_reports_exact_argument_count(self):
        """Python's own signature error counts the graph too."""
        g = topologies.path_graph(4)
        with pytest.raises(
            TypeError, match=r"takes 1 positional argument but 4 were given"
        ):
            gossip(g, "simple", None, "extra")

    def test_gossip_on_tree_typeerror_reports_exact_argument_count(self):
        tree = gossip(topologies.star_graph(4)).tree
        with pytest.raises(
            TypeError, match=r"takes 1 positional argument but 3 were given"
        ):
            gossip_on_tree(tree, "simple", "extra")


class TestNetworkDispatch:
    def test_graph_passthrough(self):
        g = topologies.grid_2d(3, 3)
        graph, tree = resolve_network(g)
        assert graph is g and tree is None

    def test_tree_spec_pins_tree(self):
        base = gossip(topologies.grid_2d(3, 3)).tree
        graph, tree = resolve_network(base)
        assert tree is base
        assert graph == tree_to_graph(base)

    def test_tree_spec_with_conflicting_override_rejected(self):
        a = gossip(topologies.path_graph(4)).tree
        b = gossip(topologies.star_graph(4)).tree
        with pytest.raises(ReproError):
            resolve_network(a, tree=b)

    def test_tree_spec_with_equal_override_accepted(self):
        """An *equal* tree= override is redundant, not conflicting: the
        docstring promises rejection only for a *different* tree."""
        base = gossip(topologies.grid_2d(3, 3)).tree
        same = gossip(topologies.grid_2d(3, 3)).tree
        assert same == base and same is not base  # exercises Tree.__eq__
        graph, tree = resolve_network(base, tree=same)
        assert tree is base
        assert graph == tree_to_graph(base)

    def test_empty_size_reports_bad_topology_size(self):
        with pytest.raises(
            ReproError,
            match=r"bad topology size in 'grid:'; want 'family:n' with integer n",
        ):
            resolve_network("grid:")

    def test_non_integer_size_reports_bad_topology_size(self):
        with pytest.raises(
            ReproError,
            match=r"bad topology size in 'grid:abc'; want 'family:n' with integer n",
        ):
            resolve_network("grid:abc")

    def test_family_string_with_size(self):
        graph, _ = resolve_network("grid:9")
        assert graph.name == "grid-3x3"

    def test_family_string_default_size(self):
        graph, _ = resolve_network("path")
        assert graph.n == 16

    def test_gossip_accepts_string_and_tree(self):
        plan = gossip("star:8")
        assert plan.graph.name == "star-8"
        on_tree = gossip(plan.tree)
        assert on_tree.tree == plan.tree
        assert on_tree.execute().complete

    @pytest.mark.parametrize("bad", ["nope", "grid:lots", "grid:9:9"])
    def test_bad_strings_rejected(self, bad):
        with pytest.raises(ReproError):
            resolve_network(bad)

    def test_non_spec_rejected(self):
        with pytest.raises(ReproError):
            resolve_network(42)


class TestEagerRegistry:
    BUILTINS = {
        "concurrent-updown", "simple", "updown",
        "updown-greedy", "greedy", "telephone",
    }

    def test_registry_complete_at_import(self):
        """No gossip() call or private helper needed: importing the
        package registers every built-in algorithm."""
        assert self.BUILTINS <= set(ALGORITHMS)

    def test_registry_complete_from_bare_core_import(self):
        import subprocess
        import sys

        code = (
            "from repro.core.gossip import ALGORITHMS; "
            "names = {'concurrent-updown', 'simple', 'updown', "
            "'updown-greedy', 'greedy', 'telephone'}; "
            "missing = names - set(ALGORITHMS); "
            "assert not missing, missing"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestMemoisedExecution:
    def test_default_execution_computed_once(self, monkeypatch):
        plan = gossip(topologies.grid_2d(3, 3))
        calls = {"n": 0}
        real = engine_module.execute_schedule

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "execute_schedule", counting)
        times1 = plan.vertex_completion_times()
        times2 = plan.vertex_completion_times()
        result = plan.execute()
        assert calls["n"] == 1
        assert times1 == times2
        assert result is plan.execute()

    def test_non_default_execution_not_memoised(self, monkeypatch):
        plan = gossip(topologies.path_graph(5))
        calls = {"n": 0}
        real = engine_module.execute_schedule

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "execute_schedule", counting)
        plan.execute(record_arrivals=True)
        plan.execute(record_arrivals=True)
        assert calls["n"] == 2  # flagged replays stay fresh

    def test_memoised_result_correct(self):
        plan = gossip(topologies.star_graph(6))
        assert plan.vertex_completion_times() == {
            v: t
            for v, t in enumerate(plan.execute().completion_times)
            if t is not None
        }
