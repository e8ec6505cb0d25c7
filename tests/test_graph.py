import random
import re
from collections import deque
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathpack.frame as frame_module
import pathpack.graph as graph_module
from helpers import bfs_dists, cycle_graph, grid_graph, path_graph
from pathpack import (UNREACHABLE, Graph, HittingCertificate, InputError,
                      PreconditionError, SolveParams, make_instance, solve)
from pathpack.graph import (
    ball,
    components,
    dist,
    distance_map,
    has_radius_at_most,
    is_path,
    least_far_pair,
    radius_center,
    st_path,
)
from pathpack.oracle import far_pair


def random_graph(seed: int, n: int = 40) -> Graph:
    g, _ = make_instance("random", n, seed=seed)
    return g


class TestConstruction:
    def test_basic(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.adj[1] == [0, 2]

    def test_adjacency_sorted(self):
        g = Graph(4, [(2, 0), (0, 3), (0, 1)])
        assert g.adj[0] == [1, 2, 3]

    def test_rejects_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(1, 1)])

    def test_duplicate_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0)])
        assert g.edge_count == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_vertex_set_check_names_the_first_bad_vertex(self):
        g = Graph(4, [(0, 1)])
        assert g.check_vertex_set([3, 0, 3]) == frozenset({0, 3})
        assert g.check_vertex_set([]) == frozenset()
        for bad in ([0, 4], [-1, 2], [1, 2.0, 3], [0, "1"], [0, True]):
            out = frozenset(bad)
            culprit = next(v for v in out if not (type(v) is int and 0 <= v < 4))
            with pytest.raises(InputError, match=f"^vertex {culprit!r} out of range for n=4$"):
                g.check_vertex_set(bad)
        # an unhashable id leaves no set: the first bad id in list order
        for bad, culprit in (([[1]], [1]), ([0, [1], 5], [1]), (iter([2, {3}]), {3})):
            with pytest.raises(InputError, match=f"^vertex {re.escape(repr(culprit))} out of range"):
                g.check_vertex_set(bad)

    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.n == 0
        assert components(g, set()) == []


def reference_adj(n: int, edges) -> list[list[int]]:
    """Each vertex's neighbours, sorted, each once: built from the edges
    with no code of graph.py."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [sorted(vs) for vs in nbrs]


def first_bad_edge(n: int, edges) -> str | None:
    """The message Graph raises for the first edge of the list that is out
    of range or a loop, or None."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) out of range for n={n}"
        if u == v:
            return f"loop at vertex {u} not allowed"
    return None


def seeded_edges(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A seeded random graph's edges in gen's order: u < v, increasing."""
    rng = random.Random(seed)
    n = rng.randrange(2, 30)
    p = rng.uniform(0.05, 0.5)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return n, edges or [(0, n - 1)]


@pytest.mark.parametrize("seed", range(30))
def test_graph_adjacency_matches_a_reference(seed):
    n, canon = seeded_edges(seed)
    rng = random.Random(seed)
    shuffled = rng.sample(canon, len(canon))
    mixed = (canon + [(v, u) for u, v in rng.choices(canon, k=len(canon))]
             + rng.choices(canon, k=len(canon) // 2 + 1))
    rng.shuffle(mixed)
    (a, b), (u, v) = canon[0], canon[-1]
    # the last four lists are in gen's form but for their final pair
    for edges in (canon, shuffled, mixed, [(b, a)] + canon[1:],
                  canon + [(u, v)], canon + [(v, u)], canon + [(b, a)],
                  canon + [(a, b)]):
        assert Graph(n, edges).adj == reference_adj(n, edges), edges


@pytest.mark.parametrize("seed", range(12))
def test_graph_names_the_first_bad_edge(seed):
    n, canon = seeded_edges(seed)
    rng = random.Random(seed)
    x = rng.randrange(n)
    loop = (x, x)
    far = rng.choice([(n - 1, n), (-1, 0), (0, n + 3), (n, n), (x, -1)])
    # in gen's order but for its final pair
    last_loop, last_far = (n - 1, n - 1), (n - 1, n)
    (a, b) = canon[0]
    swapped = (b, a)
    cut = rng.randrange(len(canon) + 1)
    head, tail = canon[:cut], canon[cut:]
    cases = [head + [far] + tail + [swapped, loop],
             head + [loop] + tail + [swapped, far],
             head + [swapped] + tail + [far, loop],
             head + [swapped] + tail + [loop, far],
             canon + [last_loop], canon + [last_far],
             canon + [swapped, last_loop], canon + [swapped, last_far]]
    for edges in cases:
        want = first_bad_edge(n, edges)
        assert want is not None
        with pytest.raises(InputError, match=f"^{re.escape(want)}$"):
            Graph(n, edges)


@pytest.mark.parametrize("edges", [
    [(0, True), (True, 2), (2, 3)],      # gen's form: appended as it comes
    [(2, 3), (True, 2), (0, True)],      # out of form: sorted and deduplicated
    [(False, 2), (1, 3)],
    [(1, 3), (3, False)],
    [(True, False), (2, 3)],
    [(0, 1.0)],                          # gen's form: fails the index
    [("0", 1)],                          # fails the comparison
    [(None, 1)],
    [(0, 1, 2)],                         # not a pair
    [(2, 3), (1, 0.5)],                  # out of form: fails the index
])
def test_graph_refuses_a_bool_endpoint(edges):
    """A bool passes the range checks as 0 or 1; the graph refuses it once
    the lists are built, on either construction path.  A float, str or None
    endpoint and an edge that is not a pair get InputError too, not the
    loop's TypeError or ValueError."""
    with pytest.raises(InputError, match="is not an int"):
        Graph(4, edges)


@pytest.mark.parametrize("n", [4.0, "4", None, True])
def test_graph_refuses_a_vertex_count_that_is_not_an_int(n):
    with pytest.raises(InputError, match="vertex count must be an int"):
        Graph(n)


class TestDist:
    def test_path_endpoints(self):
        g = path_graph(5)
        assert dist(g, {0}, {4}) == 4

    def test_same_vertex(self):
        g = path_graph(5)
        assert dist(g, {2}, {2}) == 0

    def test_set_to_set(self):
        g = path_graph(10)
        assert dist(g, {0, 1}, {8, 9}) == 7

    def test_unreachable(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert dist(g, {0}, {3}) == UNREACHABLE

    def test_cutoff_hides_far_target(self):
        g = path_graph(10)
        assert dist(g, {0}, {9}, cutoff=8) == UNREACHABLE
        assert dist(g, {0}, {9}, cutoff=9) == 9

    def test_empty_side(self):
        g = path_graph(3)
        assert dist(g, set(), {0}) == UNREACHABLE


class TestBall:
    def test_radius_zero(self):
        g = path_graph(5)
        assert ball(g, {2}, 0) == {2}

    def test_radius_two(self):
        g = path_graph(9)
        assert ball(g, {4}, 2) == {2, 3, 4, 5, 6}

    def test_negative_radius_empty(self):
        g = path_graph(5)
        assert ball(g, {2}, -1) == set()

    def test_multi_center(self):
        g = path_graph(10)
        assert ball(g, {0, 9}, 1) == {0, 1, 8, 9}


class TestStPath:
    def test_c4_min_witness(self):
        # both geodesics 0-1-2 and 0-3-2 exist; ties break to lower ids
        g = cycle_graph(4)
        assert st_path(g, {0}, {2}) == (0, 1, 2)

    def test_overlapping_sets(self):
        g = path_graph(5)
        assert st_path(g, {1, 2}, {2, 3}) == (2,)

    def test_length_matches_dist(self):
        g = grid_graph(5)
        p = st_path(g, {0}, {24})
        assert len(p) - 1 == dist(g, {0}, {24}) == 8

    def test_unreachable_returns_none(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert st_path(g, {0}, {2}) is None

    def test_path_is_valid(self):
        g = cycle_graph(11)
        p = st_path(g, {0}, {5})
        assert is_path(g, p)
        assert p[0] == 0 and p[-1] == 5


class TestIsPath:
    def test_singleton(self):
        assert is_path(path_graph(3), (1,))

    def test_rejects_repeat(self):
        g = cycle_graph(4)
        assert not is_path(g, (0, 1, 0))

    def test_rejects_non_edge(self):
        g = path_graph(4)
        assert not is_path(g, (0, 2))

    def test_rejects_empty(self):
        assert not is_path(path_graph(3), ())

    @pytest.mark.parametrize("seq", [(-1, 8), (9, -1), (100, 101), (8, 9, 10)])
    def test_rejects_ids_outside_the_graph(self, seq):
        """-1 would index the last vertex, and 100 no vertex at all."""
        assert not is_path(path_graph(10), seq)


class TestComponents:
    def test_split(self):
        g = Graph(6, [(0, 1), (2, 3), (3, 4)])
        comps = components(g, {0, 1, 2, 3, 4, 5})
        assert comps == [{0, 1}, {2, 3, 4}, {5}]

    def test_induced_subset(self):
        # removing the middle vertex disconnects the path
        g = path_graph(5)
        comps = components(g, {0, 1, 3, 4})
        assert comps == [{0, 1}, {3, 4}]

    def test_ordered_by_min(self):
        g = Graph(4, [(1, 2)])
        comps = components(g, {0, 1, 2, 3})
        assert [min(c) for c in comps] == [0, 1, 3]


class TestRadiusCenter:
    def test_p5(self):
        g = path_graph(5)
        assert radius_center(g, set(range(5))) == (2, 2)

    def test_c4(self):
        g = cycle_graph(4)
        assert radius_center(g, set(range(4))) == (0, 2)

    def test_singleton(self):
        g = path_graph(5)
        assert radius_center(g, {3}) == (3, 0)

    def test_ties_break_to_lowest_id(self):
        g = path_graph(4)
        # vertices 1 and 2 both have eccentricity 2
        assert radius_center(g, set(range(4))) == (1, 2)

    def test_has_radius_at_most_agrees(self):
        g = grid_graph(4)
        sub = set(range(16))
        _, rad = radius_center(g, sub)
        assert has_radius_at_most(g, sub, rad)
        assert not has_radius_at_most(g, sub, rad - 1)

    @pytest.mark.parametrize("check", [lambda g, s: radius_center(g, s),
                                       lambda g, s: has_radius_at_most(g, s, 3)])
    def test_bad_sets_raise(self, check):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(InputError):
            check(g, {1, 4})
        with pytest.raises(PreconditionError):
            check(g, set())
        with pytest.raises(PreconditionError):
            check(g, {0, 2})

    def test_negative_radius_needs_no_search(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not has_radius_at_most(g, {0, 2}, -1)
        assert not has_radius_at_most(g, {0}, -1)


def brute_radius_center(g: Graph, sub: frozenset[int]) -> tuple[int, int]:
    ecc = {}
    for v in sub:
        dv = bfs_dists(Graph(g.n, [(x, y) for x, y in g.edges()
                                   if x in sub and y in sub]), v)
        ecc[v] = max(dv[u] for u in sub)
    return min(sub, key=lambda v: (ecc[v], v)), min(ecc.values())


@pytest.mark.parametrize("seed", range(60))
def test_radius_scan_matches_brute_force(seed):
    """Paths, cycles and trees with chords, as induced subgraphs of a
    larger host, under every radius threshold around the true radius."""
    rng = random.Random(seed)
    kind = ("path", "cycle", "tree")[seed % 3]
    n = rng.randint(1, 30)
    order = list(range(n + 5))
    rng.shuffle(order)
    walk = order[:n]
    if kind == "tree":
        edges = [(walk[i], walk[rng.randrange(i)]) for i in range(1, n)]
        edges += [tuple(rng.sample(walk, 2)) for _ in range(n // 5)]
    else:
        edges = list(zip(walk, walk[1:]))
        if kind == "cycle" and n >= 3:
            edges.append((walk[-1], walk[0]))
    # a host vertex outside sub, so only the induced subgraph counts
    edges.append((order[n], walk[0]))
    g = Graph(n + 5, edges)
    sub = frozenset(walk)
    center, rad = brute_radius_center(g, sub)
    assert radius_center(g, sub) == (center, rad)
    for r in range(rad - 2, rad + 3):
        assert has_radius_at_most(g, sub, r) == (r >= rad)


class TestDistanceMap:
    def test_cutoff_truncates(self):
        g = path_graph(10)
        m = distance_map(g, {0}, cutoff=3)
        assert m == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_multi_source(self):
        g = path_graph(5)
        m = distance_map(g, {0, 4}, cutoff=1)
        assert m == {0: 0, 1: 1, 3: 1, 4: 0}


class TestLeastFarPair:
    def test_pruned_grid_search(self, monkeypatch):
        # without corner 0 the only pair at the diameter 78 is the other
        # two corners; oracle.far_pair searches from each of 1..39, the
        # sweeps leave only vertices near corners to search.  The entry's
        # component search counts too: the first map is read off it
        g = grid_graph(40)
        a = range(1, 1600)
        searches = []

        def counted(*args, **kwargs):
            searches.append(1)
            return distance_map(*args, **kwargs)

        def counted_tree(*args, _fn=graph_module._search_tree):
            searches.append(1)
            return _fn(*args)

        monkeypatch.setattr(graph_module, "distance_map", counted)
        monkeypatch.setattr(graph_module, "_search_tree", counted_tree)
        assert least_far_pair(g, a, 78) == (39, 1560)
        assert len(searches) < 10
        searches.clear()
        assert least_far_pair(g, a, 100) is None
        assert len(searches) == 5

    def test_unreachable_vertex_raises(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(PreconditionError):
            least_far_pair(g, [0, 2, 3], 1)

    @pytest.mark.parametrize("far", [least_far_pair, far_pair])
    @pytest.mark.parametrize("averts", [[-1, 5], [0, 10], [5, True]])
    def test_ids_outside_the_graph_raise_input_error(self, far, averts):
        """-1 would be read as vertex 9 and pass as (-1, 5), and 10 would
        be reported as lying in another component."""
        g, _ = make_instance("path", 10)
        with pytest.raises(InputError):
            far(g, averts, 3)

    @staticmethod
    def grid_sources(monkeypatch, threshold, tree=None):
        """The sources of the searches _least_far_pair runs on the 10x10
        grid with all 100 vertices, which has no pair threshold apart."""
        g = grid_graph(10)
        sources = []

        def counted(adj, src, cutoff, _fn=graph_module._levels):
            sources.append(tuple(src))
            return _fn(adj, src, cutoff)

        monkeypatch.setattr(graph_module, "_levels", counted)
        far = graph_module._least_far_pair(g, list(range(100)), threshold, tree)
        assert far is None
        return sources

    @pytest.mark.parametrize("threshold, from_least", [(25, 1), (19, 2)])
    def test_the_cut_first_map_serves_the_sweeps(self, monkeypatch, threshold,
                                                 from_least):
        """The 10x10 grid has diameter 18.  Cut at threshold - 1 = 24 the
        first search from 0 already reaches every vertex, so the sweeps
        start from it with no second search from 0; cut at 18 it stops at
        its deepest level and might have missed vertices beyond it, so the
        search from 0 runs once more uncut.  The first sweep starts from
        99, the vertex farthest from 0."""
        sources = self.grid_sources(monkeypatch, threshold)
        assert sources[:from_least + 1] == [(0,)] * from_least + [(99,)]

    @pytest.mark.parametrize("threshold", [25, 19])
    def test_the_search_tree_gives_the_first_maps(self, monkeypatch, threshold):
        """Given the search tree from 0, the cut map and the whole one are
        read off it: no search runs from 0, and the first sweep still
        starts from 99."""
        tree = graph_module._search_tree(grid_graph(10), 0, frozenset())
        sources = self.grid_sources(monkeypatch, threshold, tree)
        assert (0,) not in sources
        assert sources[0] == (99,)

    @pytest.mark.parametrize("threshold, searches",
                             [(20, 5), (25, 5)] + [(t, 2) for t in range(28, 37)])
    def test_sweeps_stop_once_no_bound_reaches_threshold(
            self, monkeypatch, threshold, searches):
        """The 10x10 grid has diameter 18, and d(0, v) + d(99, v) = 18 for
        every v.  The first sweep, from 99, bounds each eccentricity by
        min(d(0, v), d(99, v)) + 18 <= 27, so from threshold 28 on no bound
        reaches threshold after the search from 0 and that one sweep.  At 20
        and 25 the bounds fall below threshold only after all four sweeps."""
        g = grid_graph(10)
        assert far_pair(g, range(100), threshold) is None
        searches_run = []

        def counted(adj, src, cutoff, _fn=graph_module._levels):
            searches_run.append(tuple(src))
            return _fn(adj, src, cutoff)

        monkeypatch.setattr(graph_module, "_levels", counted)
        assert graph_module._least_far_pair(g, list(range(100)), threshold) is None
        assert len(searches_run) == searches

    @staticmethod
    @lru_cache(maxsize=None)
    def window_terminals(seed, corner0):
        """The 66x66 grid of the benchmark's grid window at the given seed,
        and its random_p terminals plus the four corners, less corner 0
        unless corner0."""
        side = 66
        g, a = make_instance("grid", side * side, seed, "random_p")
        a |= {0, side - 1, side * (side - 1), side * side - 1}
        return g, sorted(a if corner0 else a - {0})

    @pytest.mark.parametrize("corner0", [True, False])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("threshold", [16, 64, 120, 126, 128, 129, 130])
    def test_window_grid_pairs_match_the_oracle(self, seed, corner0, threshold):
        """Without corner 0 the pairs at 128-130 sit between other corners
        and terminals near them, and the sweeps find them."""
        g, a = self.window_terminals(seed, corner0)
        assert least_far_pair(g, a, threshold) == far_pair(g, a, threshold)

    @pytest.mark.parametrize("corner0", [True, False])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("threshold", [131, 256])
    def test_window_grid_has_no_pair_beyond_its_diameter(self, seed, corner0,
                                                        threshold):
        """The grid's diameter is 130, so no pair is 131 apart."""
        g, a = self.window_terminals(seed, corner0)
        assert least_far_pair(g, a, threshold) is None

    def test_grid_solve_sweeps_once(self, monkeypatch):
        """The plain 66x66 grid solve with k=2, d=1 asks for a pair 256
        apart; one sweep drops every bound below 256.  Round 0 has no
        guard, so its far-pair test reads the map from the least terminal
        off the candidate search, and its only search is that one sweep."""
        side = 66
        g, a = make_instance("grid", side * side, 1, "random_p")
        a |= {0, side - 1, side * (side - 1), side * side - 1}
        searches, inside = [], []

        def counted(adj, src, cutoff, _fn=graph_module._levels):
            if inside:
                searches.append(tuple(src))
            return _fn(adj, src, cutoff)

        def counted_tree(g, v, blocked, _fn=graph_module._search_tree):
            if inside:
                searches.append((v,))
            return _fn(g, v, blocked)

        def far_pair_test(*args, _fn=frame_module._least_far_pair):
            inside.append(1)
            try:
                return _fn(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(graph_module, "_levels", counted)
        monkeypatch.setattr(graph_module, "_search_tree", counted_tree)
        monkeypatch.setattr(frame_module, "_least_far_pair", far_pair_test)
        assert isinstance(solve(g, a, SolveParams(k=2, d=1)), HittingCertificate)
        assert searches == [(side * side - 1,)]

    def test_duplicates_and_tiny_sets(self):
        g = path_graph(5)
        assert least_far_pair(g, [3, 3, 4], 1) == (3, 4)
        for threshold in range(6):
            assert least_far_pair(g, [2], threshold) is None
            assert least_far_pair(g, [], threshold) is None


def connected_graph(kind: str, n: int, seed: int) -> Graph:
    """A connected host of about n vertices; "random" is a random tree
    plus n/2 random chords."""
    if kind == "path":
        return path_graph(n)
    if kind == "cycle":
        return cycle_graph(max(n, 3))
    if kind == "grid":
        return grid_graph(max(1, round(n ** 0.5)))
    rng = random.Random(seed)
    edges = [(v, rng.randrange(v)) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
    return Graph(n, [(u, v) for u, v in edges if u != v])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["path", "cycle", "grid", "random"]),
       st.integers(1, 64), st.integers(0, 10_000),
       st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_least_far_pair_matches_oracle(kind, n, seed, density):
    """Every threshold from 0 to past the diameter, so both sides of the
    window [diameter/2, diameter] where the per-vertex searches run."""
    g = connected_graph(kind, n, seed)
    rng = random.Random(seed)
    a = [v for v in range(g.n) if rng.random() < density]
    diameter = max(max(bfs_dists(g, v).values()) for v in range(g.n))
    ids = sorted(set(a))
    tree = graph_module._search_tree(g, ids[0], frozenset()) if ids else None
    for threshold in range(diameter + 3):
        want = far_pair(g, a, threshold)
        assert least_far_pair(g, a, threshold) == want
        # the round's body, whose first search stops at threshold - 1, and
        # a round's on a whole component, which reads its maps off its tree
        if ids:
            assert graph_module._least_far_pair(g, ids, threshold) == want
            assert graph_module._least_far_pair(g, ids, threshold, tree) == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["path", "cycle", "grid", "random"]),
       st.integers(1, 64), st.integers(0, 10_000))
def test_tree_levels_match_levels(kind, n, seed):
    """A search tree of the whole component gives, at every cutoff, the
    map _levels searches: the same keys, values and key order, so the
    sweeps' picks from its last level are the same."""
    g = connected_graph(kind, n, seed)
    v = random.Random(seed).randrange(g.n)
    tree = graph_module._search_tree(g, v, frozenset())
    diameter = max(max(bfs_dists(g, u).values()) for u in range(g.n))
    for cutoff in [None, -1, *range(diameter + 2)]:
        want = graph_module._levels(g.adj, (v,), cutoff)
        got = graph_module._tree_levels(tree, cutoff)
        assert got == want
        assert list(got.items()) == list(want.items())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["path", "cycle", "grid", "random"]),
       st.integers(1, 64), st.integers(0, 10_000), st.integers(0, 3))
def test_farthest_is_the_least_id_at_the_greatest_depth(kind, n, seed, sources):
    """_farthest reads the last level of a level-ordered map, from one
    source or several, at every cutoff; grids and even cycles tie there."""
    g = connected_graph(kind, n, seed)
    src = random.Random(seed).sample(range(g.n), min(sources + 1, g.n))
    diameter = max(max(bfs_dists(g, u).values()) for u in range(g.n))
    for cutoff in [None, *range(diameter + 1)]:
        m = graph_module._levels(g.adj, src, cutoff)
        assert graph_module._farthest(m) == max(m, key=lambda v: (m[v], -v))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 39), st.integers(0, 39))
def test_dist_symmetric_and_matches_bfs(seed, a, b):
    g = random_graph(seed)
    a, b = a % g.n, b % g.n
    ref = bfs_dists(g, a)
    want = ref.get(b, UNREACHABLE)
    assert dist(g, {a}, {b}) == want
    assert dist(g, {b}, {a}) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 39), st.integers(0, 39),
       st.integers(0, 39))
def test_triangle_inequality(seed, a, b, c):
    g = random_graph(seed)
    a, b, c = a % g.n, b % g.n, c % g.n
    ab = dist(g, {a}, {b})
    bc = dist(g, {b}, {c})
    ac = dist(g, {a}, {c})
    if ab != UNREACHABLE and bc != UNREACHABLE:
        assert ac <= ab + bc


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 39), st.integers(0, 39))
def test_st_path_is_geodesic(seed, a, b):
    g = random_graph(seed)
    a, b = a % g.n, b % g.n
    p = st_path(g, {a}, {b})
    want = dist(g, {a}, {b})
    if want == UNREACHABLE:
        assert p is None
    else:
        assert is_path(g, p)
        assert len(p) - 1 == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 39), st.integers(0, 5))
def test_ball_matches_bfs(seed, c, r):
    g = random_graph(seed)
    c = c % g.n
    ref = bfs_dists(g, c)
    assert ball(g, {c}, r) == {v for v, dv in ref.items() if dv <= r}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10_000), st.integers(0, 4),
       st.integers(-1, 64))
def test_reach_is_the_ball_and_says_when_it_is_closed(n, seed, seeds, r):
    """_reach gives the ball as a set, and says closed exactly when its
    search ended before r levels: then no vertex of the ball has a
    neighbour outside it.  Random hosts have several components, and a
    radius of n or more always closes."""
    g, _ = make_instance("random", n, seed)
    x = random.Random(seed).sample(range(g.n), min(seeds, g.n))
    got, closed = graph_module._reach(g, x, r)
    depth: dict[int, int] = {}
    for s in x:
        for v, dv in bfs_dists(g, s).items():
            depth[v] = min(dv, depth.get(v, dv))
    assert got == {v for v, dv in depth.items() if dv <= r} == ball(g, x, r)
    assert closed == (r < 0 or max(depth.values(), default=-1) < r)
    if closed:
        assert all(w in got for v in got for w in g.adj[v])
    if r >= g.n:
        assert closed


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(0, 10_000), st.integers(0, 4),
       st.integers(-2, 20), st.integers(-2, 20))
def test_two_balls_are_the_balls_of_either_radius(n, seed, seeds, r, s):
    """_two_balls grows one search to the larger radius; each ball it
    gives is ball's, a negative radius's empty, whichever radius is
    larger."""
    g, _ = make_instance("random", n, seed)
    x = random.Random(seed).sample(range(g.n), min(seeds, g.n))
    assert graph_module._two_balls(g, x, r, s) == (ball(g, x, r),
                                                   ball(g, x, s))


def grown_set(g: Graph, rng: random.Random, size: int) -> set[int]:
    """A connected set of up to size vertices, grown one random neighbour
    at a time from a random vertex."""
    sub = {rng.randrange(g.n)}
    rim = sorted({w for v in sub for w in g.adj[v]} - sub)
    while rim and len(sub) < size:
        sub.add(rng.choice(rim))
        rim = sorted({w for v in sub for w in g.adj[v]} - sub)
    return sub


def reference_components(g: Graph, sub: set[int]) -> list[frozenset[int]]:
    """Components of g[sub] by the plain reference BFS on a copy of the
    induced subgraph, ordered by least vertex id."""
    h = Graph(g.n, [(u, v) for u, v in g.edges() if u in sub and v in sub])
    out: list[frozenset[int]] = []
    for v in sorted(sub):
        if not any(v in comp for comp in out):
            out.append(frozenset(bfs_dists(h, v)))
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 41))
@example(0, 0)
@example(0, 41)
def test_components_matches_reference(seed, size):
    """Random sets of every size, from the empty set to all of V (size 41
    on 40 vertices), so that sets fall apart into many components."""
    g = random_graph(seed)
    rng = random.Random(seed)
    sub = set(range(g.n)) if size > g.n else set(rng.sample(range(g.n), size))
    assert components(g, sub) == reference_components(g, sub)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 20))
def test_search_tree_paths_match_st_path(seed, size):
    """The round's candidate search from a in g minus a random guard spans
    a's component there, and the path read off it to each b of the
    component is the one st_path finds within the component."""
    g = random_graph(seed)
    rng = random.Random(seed)
    guard = frozenset(rng.sample(range(g.n), size))
    a = rng.choice(sorted(set(range(g.n)) - guard))
    tree = graph_module._search_tree(g, a, guard)
    comp = next(c for c in reference_components(g, set(range(g.n)) - guard)
                if a in c)
    assert tree.keys() == comp
    for b in comp:
        assert graph_module._tree_path(tree, b) == st_path(g, {a}, {b},
                                                           within=comp)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 40), st.integers(0, 3))
def test_connected_matches_components(seed, size, cuts):
    """Grown sets with up to three vertices removed, so both answers occur,
    down to the empty set; the component search within the set takes each
    component, its start first, and removes exactly it from the set."""
    g = random_graph(seed)
    rng = random.Random(seed)
    sub = grown_set(g, rng, size) if size else set()
    for _ in range(min(cuts, len(sub))):
        sub.discard(rng.choice(sorted(sub)))
    comps = reference_components(g, sub)
    want = len(comps) == 1
    assert graph_module._connected(g, sub) == want
    assert graph_module._connected(g, frozenset(sub)) == want
    for comp in comps:
        rest = set(sub)
        taken = graph_module._take_component(g.adj, max(comp), rest)
        assert taken[0] == max(comp)
        assert len(taken) == len(comp) and set(taken) == comp
        assert rest == sub - comp


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 25), st.booleans())
def test_has_radius_at_most_matches_radius_center(seed, size, cut):
    """Every r from -2 to |S|+1, on both sides of r = |S|-1, where the
    check needs no eccentricity scan."""
    g = random_graph(seed)
    rng = random.Random(seed)
    sub = grown_set(g, rng, size)
    if cut and len(sub) > 1:
        sub.discard(rng.choice(sorted(sub)))
    rs = range(-2, len(sub) + 2)
    if len(components(g, sub)) == 1:
        _, rad = radius_center(g, sub)
        assert [has_radius_at_most(g, sub, r) for r in rs] == [r >= rad for r in rs]
        return
    for r in rs:
        if r < 0:
            assert not has_radius_at_most(g, sub, r)
        else:
            with pytest.raises(PreconditionError, match="^radius check of disconnected set$"):
                has_radius_at_most(g, sub, r)


def test_radius_check_of_empty_set_raises_at_every_r():
    g = path_graph(3)
    for r in range(-2, 4):
        with pytest.raises(PreconditionError, match="^radius check of empty set$"):
            has_radius_at_most(g, set(), r)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sets(st.integers(0, 39), max_size=6),
       st.sets(st.integers(0, 39), max_size=6), st.integers(0, 6))
def test_set_dist_matches_bfs_and_keeps_its_arguments(seed, s, t, cutoff):
    g = random_graph(seed)
    s = {v % g.n for v in s}
    t = frozenset(v % g.n for v in t)
    want = min((bfs_dists(g, a).get(b, UNREACHABLE) for a in s for b in t),
               default=UNREACHABLE)
    if want > cutoff:
        want = UNREACHABLE
    s_before, t_set = set(s), set(t)
    assert dist(g, s, t, cutoff=cutoff) == want
    assert dist(g, s, t_set, cutoff=cutoff) == want
    assert dist(g, t_set, s, cutoff=cutoff) == want
    assert s == s_before and t_set == t


def queue_st_path(g, s, t, within=None):
    """st_path as one FIFO queue: sources in ascending id, neighbours in
    ascending id, stopping at the first target seen."""
    ss, tt = set(s), set(t)
    if within is not None:
        ss &= within
        tt &= within
    if not ss or not tt:
        return None
    if ss & tt:
        return (min(ss & tt),)
    parent = {}
    seen = set(ss)
    queue = deque(sorted(ss))
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if v in seen or (within is not None and v not in within):
                continue
            seen.add(v)
            parent[v] = u
            if v in tt:
                path = [v]
                while path[-1] not in ss:
                    path.append(parent[path[-1]])
                return tuple(reversed(path))
            queue.append(v)
    return None


def test_st_path_matches_a_queue_search():
    """Same path as the FIFO search, also within a grown region that holds
    both ends (size 0 means no restriction) and cut at a depth, with the
    arguments left unchanged."""
    rng = random.Random(7)
    for seed in range(150):
        g = random_graph(seed)
        for size in (0, 6, 12, 24):
            within = frozenset(grown_set(g, rng, size)) if size else None
            ends = sorted(within) if within else range(g.n)
            s = set(rng.sample(ends, min(len(ends), rng.randint(1, 3))))
            t = frozenset(rng.sample(ends, min(len(ends), rng.randint(1, 6))))
            full = queue_st_path(g, s, t, within)
            for cutoff in (None, 0, 2, 4):
                want = full
                if want is not None and cutoff is not None and len(want) - 1 > cutoff:
                    want = None
                s_before, t_set = set(s), set(t)
                assert st_path(g, s, t, cutoff=cutoff, within=within) == want
                assert st_path(g, sorted(s), t_set, cutoff=cutoff, within=within) == want
                assert s == s_before and t_set == t
