import pytest

from helpers import cycle_graph, path_graph
from pathpack import Graph, PreconditionError
from pathpack.oracle import (
    brute_force_packing_exists,
    far_pair,
    hitting_violations,
    packing_violations,
    verify_hitting,
    verify_packing,
)


class TestFarPair:
    def test_least_pair_wins(self):
        g = path_graph(100)
        assert far_pair(g, [0, 30, 60, 99], 25) == (0, 30)
        assert far_pair(g, [0, 30, 60, 99], 40) == (0, 60)

    def test_later_source_needed(self):
        # host path runs 1-0-2-3-...-99, so vertex 0 sits one step in and
        # has no partner at 60, while vertex 1 reaches position 60
        edges = [(1, 0), (0, 2)] + [(i, i + 1) for i in range(2, 99)]
        g = Graph(100, edges)
        assert far_pair(g, [0, 1, 60], 60) == (1, 60)

    def test_none_when_bunched(self):
        g = path_graph(100)
        assert far_pair(g, [40, 42, 45], 10) is None

    def test_none_when_too_few(self):
        g = path_graph(10)
        assert far_pair(g, [5], 1) is None
        assert far_pair(g, [], 1) is None

    def test_close_pair_in_component(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert far_pair(g, [0, 1], 2) is None

    def test_threshold_zero(self):
        g = path_graph(5)
        assert far_pair(g, [3, 4], 1) == (3, 4)

    def test_unreachable_vertex_raises(self):
        # 2 and 3 sit at distance 1 but are unreachable from 0
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(PreconditionError):
            far_pair(g, [0, 2, 3], 1)


class TestPackingViolations:
    def test_valid(self):
        g = path_graph(10)
        a = frozenset({0, 4, 6, 9})
        paths = [(0, 1, 2, 3, 4), (6, 7, 8, 9)]
        assert packing_violations(g, a, paths, 2, 2) == []
        assert verify_packing(g, a, paths, 2, 2)

    def test_too_few_paths(self):
        g = path_graph(10)
        out = packing_violations(g, frozenset({0, 9}), [], 1, 1)
        assert any("need 1" in v for v in out)

    def test_short_path(self):
        g = path_graph(10)
        out = packing_violations(g, frozenset({5}), [(5,)], 1, 1)
        assert any("fewer than two" in v for v in out)

    def test_not_a_path(self):
        g = path_graph(10)
        out = packing_violations(g, frozenset({0, 2}), [(0, 2)], 1, 1)
        assert any("not a path" in v for v in out)

    @pytest.mark.parametrize("path", [(100000000000, 1), (1, 2, -1)])
    def test_vertex_outside_the_graph_is_a_violation(self, path):
        g = path_graph(10)
        out = packing_violations(g, frozenset({0, 9}), [(0, 1), path], 2, 1)
        assert out == ["path 1 has a vertex outside the graph"]

    def test_endpoint_outside_terminals(self):
        g = path_graph(10)
        out = packing_violations(g, frozenset({0}), [(0, 1, 2)], 1, 1)
        assert any("join two terminals" in v for v in out)

    def test_pair_too_close(self):
        g = path_graph(10)
        a = frozenset({0, 4, 6, 9})
        paths = [(0, 1, 2, 3, 4), (6, 7, 8, 9)]
        assert verify_packing(g, a, paths, 2, 2)
        assert not verify_packing(g, a, paths, 2, 3)

    def test_coarse_needs_far_endpoints(self):
        g = path_graph(10)
        a = frozenset({0, 2})
        assert verify_packing(g, a, [(0, 1, 2)], 1, 2, coarse=True)
        assert not verify_packing(g, a, [(0, 1, 2)], 1, 3, coarse=True)


class TestHittingViolations:
    def test_central_ball_separates(self):
        g = path_graph(101)
        a = frozenset({0, 100})
        assert hitting_violations(g, a, frozenset({50}), 40, 4) == []

    def test_empty_set_misses(self):
        g = path_graph(101)
        a = frozenset({0, 100})
        out = hitting_violations(g, a, frozenset(), 40, 4)
        assert any("unhit terminal path" in v for v in out)

    def test_single_terminal_component_is_fine(self):
        g = Graph(4, [(0, 1), (2, 3)])
        a = frozenset({0, 2})
        assert verify_hitting(g, a, frozenset(), 0, 4)

    def test_size_bound(self):
        g = path_graph(10)
        out = hitting_violations(g, frozenset({0}), frozenset({1, 2}), 3, 1)
        assert any("bound is 1" in v for v in out)

    def test_out_of_range_vertex(self):
        g = path_graph(10)
        out = hitting_violations(g, frozenset({0}), frozenset({99}), 3, 4)
        assert any("not in the graph" in v for v in out)

    def test_coarse_threshold_filters_close_pairs(self):
        g = path_graph(100)
        a = frozenset({0, 99})
        assert verify_hitting(g, a, frozenset(), 0, 4, coarse_threshold=100)
        assert not verify_hitting(g, a, frozenset(), 0, 4, coarse_threshold=99)

    def test_negative_radius(self):
        g = path_graph(10)
        out = hitting_violations(g, frozenset({0, 9}), frozenset({5}), -1, 4)
        assert any("negative" in v for v in out)


class TestBruteForce:
    def test_single_path(self):
        g = path_graph(5)
        a = frozenset({0, 4})
        assert brute_force_packing_exists(g, a, 1, 1)
        assert not brute_force_packing_exists(g, a, 2, 1)

    def test_cycle_counts(self):
        g = cycle_graph(6)
        a = frozenset(range(6))
        assert brute_force_packing_exists(g, a, 3, 1)
        assert brute_force_packing_exists(g, a, 2, 2)
        assert not brute_force_packing_exists(g, a, 3, 2)

    def test_coarse_endpoint_distance(self):
        g = path_graph(6)
        a = frozenset({0, 5})
        assert brute_force_packing_exists(g, a, 1, 5, coarse=True)
        assert not brute_force_packing_exists(g, a, 1, 6, coarse=True)

    def test_no_terminals(self):
        g = path_graph(6)
        assert not brute_force_packing_exists(g, frozenset(), 1, 1)

    def test_zero_paths_always_exist(self):
        g = path_graph(6)
        assert brute_force_packing_exists(g, frozenset(), 0, 1)

    def test_long_path_within_recursion_limit(self):
        # one search step per path vertex, far beyond the recursion limit
        g = path_graph(1500)
        assert brute_force_packing_exists(g, frozenset({0, 1499}), 1, 1)

    def test_budget_exhaustion_raises(self):
        g = path_graph(10)
        with pytest.raises(PreconditionError):
            brute_force_packing_exists(g, frozenset({0, 9}), 1, 1, max_steps=1)
