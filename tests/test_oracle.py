import pytest

from helpers import cycle_graph, path_graph
from pathpack import Graph, InputError, PreconditionError, oracle
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


class TestHittingSearch:
    """hitting_violations searches only the components that hold a
    terminal, and tests a far pair only where its size and its depth from
    the least terminal allow one."""

    @staticmethod
    def record(monkeypatch):
        """The components the check searches and the far_pair calls it
        makes, as lists of the vertices each call saw."""
        seen = {"comps": [], "far": []}
        mark, fp = oracle._mark, oracle.far_pair

        def _mark(adj, marks, seeds, levels):
            out = mark(adj, marks, seeds, levels)
            # a component search runs to n levels, the balls' here fewer
            if levels >= len(marks):
                seen["comps"].append(out[0])
            return out

        def far_pair(g, averts, threshold):
            seen["far"].append(sorted(averts))
            return fp(g, averts, threshold)

        monkeypatch.setattr(oracle, "_mark", _mark)
        monkeypatch.setattr(oracle, "far_pair", far_pair)
        return seen

    @pytest.mark.parametrize("threshold, want", [
        (8, ["unhit coarse terminal path between 0 and 9"]),
        (9, ["unhit coarse terminal path between 0 and 9"]),
        (10, [])])
    def test_size_rule_boundary(self, monkeypatch, threshold, want):
        """A 10-vertex component is 9 across: threshold 9 still needs the
        far-pair test, and threshold 10 is decided by its size alone."""
        seen = self.record(monkeypatch)
        g = path_graph(10)
        assert hitting_violations(g, frozenset({0, 9}), frozenset(), 0, 3,
                                  threshold) == want
        assert seen["far"] == ([] if threshold == 10 else [[0, 9]])

    def test_only_terminal_components_are_searched(self, monkeypatch):
        """Paths of 3, 6, 9 and 12 vertices, each with terminals at both
        ends except the 9-vertex one, plus terminal-free paths between
        them: three searches, and far_pair only where s - 1 >= 5."""
        seen = self.record(monkeypatch)
        sizes = [3, 4, 6, 2, 9, 5, 12]
        edges, a, base = [], set(), 0
        for idx, s in enumerate(sizes):
            edges += [(base + i, base + i + 1) for i in range(s - 1)]
            if idx in (0, 2, 6):
                a |= {base, base + s - 1}
            base += s
        g = Graph(base, edges)
        out = hitting_violations(g, frozenset(a), frozenset(), 0, 3, 5)
        assert out == ["unhit coarse terminal path between 7 and 12",
                       "unhit coarse terminal path between 29 and 40"]
        assert [len(c) for c in seen["comps"]] == [3, 6, 12]
        assert all(a.intersection(c) for c in seen["comps"])
        assert seen["far"] == [[7, 12], [29, 40]]

    @pytest.mark.parametrize("threshold, want", [
        (4, ["unhit coarse terminal path between 2 and 4"]), (5, [])])
    def test_eccentricity_rule_boundary(self, threshold, want):
        """The path 2-1-0-3-4 searched from terminal 0 is 2 levels deep, so
        it is at most 4 across, and terminals 2 and 4 are exactly 4 apart."""
        g = Graph(5, [(2, 1), (1, 0), (0, 3), (3, 4)])
        assert hitting_violations(g, frozenset({0, 2, 4}), frozenset(), 0, 3,
                                  threshold) == want

    def test_shallow_component_gets_no_far_pair_test(self, monkeypatch):
        """A star of 21 vertices searched from its center is 1 level deep:
        at most 2 across, though its size allows 20."""
        seen = self.record(monkeypatch)
        g = Graph(21, [(0, v) for v in range(1, 21)])
        a = frozenset(range(21))
        assert hitting_violations(g, a, frozenset(), 0, 3, 3) == []
        assert hitting_violations(g, a, frozenset(), 0, 3, 2) == [
            "unhit coarse terminal path between 1 and 2"]
        assert seen["far"] == [list(range(21))]

    def test_plain_mode_searches_each_component_once(self, monkeypatch):
        seen = self.record(monkeypatch)
        g = path_graph(20)
        a = frozenset({0, 3, 4, 12, 15, 19})
        out = hitting_violations(g, a, frozenset({8}), 2, 3)
        assert out == ["unhit terminal path between 0 and 3",
                       "unhit terminal path between 12 and 15"]
        assert [c[0] for c in seen["comps"]] == [0, 12]
        assert seen["far"] == []

    def test_witnesses_come_by_least_vertex_of_their_component(self):
        """Component {0, 7, 8, 9} has least vertex 0 but least terminal 7,
        so the search from terminal 2 meets {1, 2, 3} first; the list
        follows the components' least vertices."""
        g = Graph(10, [(0, 9), (9, 8), (8, 7), (1, 2), (2, 3)])
        a = frozenset({2, 3, 7, 9})
        assert hitting_violations(g, a, frozenset(), 0, 3) == [
            "unhit terminal path between 7 and 9",
            "unhit terminal path between 2 and 3"]


class TestForeignIds:
    """Ids that are not vertices never reach the oracle's kernels, where a
    negative id would index the marks from the end."""

    @pytest.mark.parametrize("foreign", [-1, 10, "x"])
    def test_foreign_terminals_are_ignored(self, foreign):
        g = path_graph(10)
        a = frozenset({foreign, 0, 9})
        assert hitting_violations(g, a, frozenset(), 0, 3, 9) == [
            "unhit coarse terminal path between 0 and 9"]
        assert hitting_violations(g, a, frozenset(), 0, 3) == [
            "unhit terminal path between 0 and 9"]
        assert hitting_violations(g, a, frozenset({5}), 0, 3) == []

    def test_kernels_see_only_vertices(self, monkeypatch):
        g = path_graph(10)
        handed = []

        def screened(kernel, at):
            def wrapper(*args):
                ids = list(args[at])
                handed.extend(ids)
                assert all(type(v) is int and 0 <= v < g.n for v in ids), ids
                return kernel(*args)
            return wrapper

        # _mark(adj, marks, seeds, levels) and _depths(adj, src, cutoff)
        monkeypatch.setattr(oracle, "_mark", screened(oracle._mark, 2))
        monkeypatch.setattr(oracle, "_depths", screened(oracle._depths, 1))
        foreign = [-1, 10, "x", True, 2.0]
        a = frozenset(foreign) | {0, 9}
        for thr in (None, 1, 9):
            hitting_violations(g, a, frozenset({4}), 1, 3, thr)
            hitting_violations(g, a, frozenset(), 0, 3, thr)
            for v in foreign:
                assert hitting_violations(g, a, frozenset({v}), 1, 3, thr)
        for v in foreign:
            assert packing_violations(g, a, [(0, 1), (8, v)], 2, 2, True)
            with pytest.raises(InputError):
                far_pair(g, [0, v], 1)
            with pytest.raises(InputError):
                brute_force_packing_exists(g, frozenset({0, v}), 1, 1)
        assert packing_violations(g, a, [(0, 1, 2), (7, 8, 9)], 2, 9, True)
        assert brute_force_packing_exists(g, frozenset({0, 9}), 1, 9, True)
        # the ball's seed, a component's and a coarse endpoint's
        assert {4, 0, 7} <= set(handed)


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
